package routesim

// The naive evaluations of the two route-simulation fixed points, kept as
// test-only oracles: a synchronous Bellman-Ford per IGP destination that
// recomputes every router every round, and a BGP round that re-copies
// every seed, re-advertises every template over every session and
// re-normalises every RIB. They are what ComputeIGP and Stepper.Round
// were before they computed each guarded route once, and the licence for
// that change: in one manager both evaluations must produce pointer-equal
// guards, in the same candidate order, after the same number of rounds
// (DESIGN.md §19).

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// feasible reports whether g is satisfiable within the failure budget,
// the way the naive evaluation asked: KReduce the materialised guard and
// compare with zero.
func feasible(fv *FailVars, g *mtbdd.Node) bool {
	if fv.K < 0 {
		return g != fv.M.Zero()
	}
	return fv.M.KReduce(g, fv.K) != fv.M.Zero()
}

// ---- IGP oracle ----

func referenceIGP(fv *FailVars) *IGP {
	net := fv.Net
	g := newIGP(fv)
	for i := range g.routes {
		g.routes[i] = make(map[topo.RouterID][]IGPRoute)
		g.reach[i] = make(map[topo.RouterID]*mtbdd.Node)
	}
	for _, as := range net.ASes() {
		members := net.RoutersInAS(as)
		inAS := make(map[topo.RouterID]bool, len(members))
		for _, r := range members {
			inAS[r] = true
		}
		for _, dest := range members {
			refComputeDest(g, members, inAS, dest)
		}
	}
	return g
}

// costGuards is a path-existence set: cost -> guard that a live path of
// that cost exists.
type costGuards map[int64]*mtbdd.Node

func refComputeDest(g *IGP, members []topo.RouterID, inAS map[topo.RouterID]bool, dest topo.RouterID) {
	m, fv, net := g.fv.M, g.fv, g.fv.Net
	pe := make(map[topo.RouterID]costGuards, len(members))
	pe[dest] = costGuards{0: m.One()}

	// Synchronous rounds to the fixed point. The loop this oracle was
	// lifted from stopped after |AS| rounds at the latest ("longest simple
	// path"), which is one assumption too many: a walk that revisits a
	// router is pruned wherever it forms a level of its own, but where its
	// cost coincides with a kept level's it rides along in that level's
	// guard, and such contributions can need more than |AS| rounds to
	// arrive (31 of the 2 400 runs of TestReferenceBlueprints). They never change a
	// selection — the walk implies a cheaper level — but they are part of
	// the fixed point, so the oracle iterates until nothing moves.
	for {
		next := make(map[topo.RouterID]costGuards, len(members))
		next[dest] = costGuards{0: m.One()}
		changed := false
		for _, r := range members {
			if r == dest {
				continue
			}
			acc := make(costGuards)
			for _, e := range net.Out(r) {
				if !inAS[e.To] {
					continue
				}
				nbr := pe[e.To]
				if nbr == nil {
					continue
				}
				up := fv.EdgeUp(e)
				for c, guard := range nbr {
					total := c + e.Cost
					add := fv.ReduceAnd(up, guard)
					if add == m.Zero() {
						continue
					}
					if prev, ok := acc[total]; ok {
						acc[total] = fv.ReduceOr(prev, add)
					} else {
						acc[total] = add
					}
				}
			}
			pruned := refPruneDominated(fv, acc)
			if len(pruned) > 0 {
				next[r] = pruned
			}
			if !changed && !sameCostGuards(pe[r], pruned) {
				changed = true
			}
		}
		pe = next
		if !changed {
			break
		}
	}

	for _, r := range members {
		if r == dest {
			g.reach[r][dest] = fv.RouterUp(dest)
			continue
		}
		acc := m.Zero()
		for _, guard := range pe[r] {
			acc = fv.ReduceOr(acc, guard)
		}
		if acc != m.Zero() {
			g.reach[r][dest] = acc
		}
	}

	for _, r := range members {
		if r == dest {
			continue
		}
		var cands []IGPRoute
		for _, e := range net.Out(r) {
			if !inAS[e.To] {
				continue
			}
			var nbr costGuards
			if e.To == dest {
				nbr = costGuards{0: m.One()}
			} else {
				nbr = pe[e.To]
			}
			up := fv.EdgeUp(e)
			for c, guard := range nbr {
				gg := fv.ReduceAnd(up, guard)
				if gg == m.Zero() {
					continue
				}
				cands = append(cands, IGPRoute{Out: e.DirLink, Cost: e.Cost + c, Guard: gg})
			}
		}
		cands = refPruneCandidates(fv, cands)
		if len(cands) > 0 {
			g.routes[r][dest] = cands
		}
	}
}

func refPruneDominated(fv *FailVars, cg costGuards) costGuards {
	if len(cg) == 0 {
		return nil
	}
	m := fv.M
	costs := make([]int64, 0, len(cg))
	for c := range cg {
		costs = append(costs, c)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	out := make(costGuards, len(cg))
	cheaper := m.Zero()
	for _, c := range costs {
		guard := cg[c]
		if feasible(fv, m.And(guard, m.Not(cheaper))) {
			out[c] = guard
			cheaper = fv.ReduceOr(cheaper, guard)
		}
	}
	return out
}

func refPruneCandidates(fv *FailVars, cands []IGPRoute) []IGPRoute {
	if len(cands) == 0 {
		return nil
	}
	m := fv.M
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Cost != cands[j].Cost {
			return cands[i].Cost < cands[j].Cost
		}
		return cands[i].Out < cands[j].Out
	})
	out := cands[:0]
	cheaper := m.Zero()
	i := 0
	for i < len(cands) {
		j := i
		levelOr := m.Zero()
		for j < len(cands) && cands[j].Cost == cands[i].Cost {
			cand := cands[j]
			if feasible(fv, m.And(cand.Guard, m.Not(cheaper))) {
				out = append(out, cand)
				levelOr = m.Or(levelOr, cand.Guard)
			}
			j++
		}
		cheaper = fv.ReduceOr(cheaper, levelOr)
		i = j
	}
	return out
}

func sameCostGuards(a, b costGuards) bool {
	if len(a) != len(b) {
		return false
	}
	for c, g := range a {
		if b[c] != g {
			return false
		}
	}
	return true
}

// ---- BGP oracle ----

type candKey struct {
	nexthop       netip.Addr
	direct        bool
	outEdge       topo.DirLinkID
	deliver       bool
	discard       bool
	advertiseOnly bool
	aspath        string
	localPref     uint32
	fromEBGP      bool
	igpCost       int64
}

func keyOf(c *BGPCand) candKey {
	var sb strings.Builder
	for _, as := range c.ASPath {
		sb.WriteString(strconv.FormatUint(uint64(as), 10))
		sb.WriteByte(',')
	}
	return candKey{
		nexthop: c.NextHop, direct: c.Direct, outEdge: c.OutEdge,
		deliver: c.Deliver, discard: c.Discard, advertiseOnly: c.AdvertiseOnly,
		aspath: sb.String(), localPref: c.LocalPref, fromEBGP: c.FromEBGP,
		igpCost: c.IGPCost,
	}
}

type refTemplate struct {
	cand     *BGPCand
	groupSel *mtbdd.Node
}

// refStepper is the naive Stepper: every Round rebuilds every template,
// re-copies every seed, re-advertises over every session, re-normalises
// every RIB and compares whole RIBs.
type refStepper struct {
	fv       *FailVars
	igp      *IGP
	sessions []session
	seeds    []BGPRIB
	ribs     []BGPRIB
	member   []bool
	stubTpls []map[netip.Prefix][]refTemplate
}

func newRefStepper(fv *FailVars, cfgs config.Configs, igp *IGP, member []bool) *refStepper {
	net := fv.Net
	st := &refStepper{
		fv:       fv,
		igp:      igp,
		member:   member,
		seeds:    make([]BGPRIB, net.NumRouters()),
		stubTpls: make([]map[netip.Prefix][]refTemplate, net.NumRouters()),
	}
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := range st.seeds {
		st.seeds[i] = make(BGPRIB)
	}
	for _, name := range names {
		rc := cfgs[name]
		r, _ := net.RouterByName(name)
		if r == nil {
			continue
		}
		refSeedLocal(fv, net, r, rc, st.seeds[r.ID])
		for _, nb := range rc.Neighbors {
			if nb.RemoteAS == r.AS {
				peer, ok := net.RouterByLoopback(nb.Addr)
				if !ok {
					continue
				}
				st.sessions = append(st.sessions, session{from: peer.ID, to: r.ID, ebgp: false})
			} else {
				d, ok := net.DirLinkToAddr(nb.Addr)
				if !ok {
					continue
				}
				e := net.Edge(d)
				pref := nb.LocalPref
				if pref == 0 {
					pref = config.DefaultLocalPref
				}
				st.sessions = append(st.sessions, session{from: e.To, to: r.ID, ebgp: true, edge: e, importPref: pref})
			}
		}
	}
	for _, name := range names {
		rc := cfgs[name]
		r, _ := net.RouterByName(name)
		if r == nil {
			continue
		}
		for _, nb := range rc.Neighbors {
			if len(nb.ExportDeny) == 0 {
				continue
			}
			var peerID topo.RouterID = -1
			if nb.RemoteAS == r.AS {
				if peer, ok := net.RouterByLoopback(nb.Addr); ok {
					peerID = peer.ID
				}
			} else if d, ok := net.DirLinkToAddr(nb.Addr); ok {
				peerID = net.Edge(d).To
			}
			for i := range st.sessions {
				if st.sessions[i].from == r.ID && st.sessions[i].to == peerID {
					st.sessions[i].exportDeny = nb.ExportDeny
				}
			}
		}
	}
	for i := range st.seeds {
		st.seeds[i] = refNormalize(fv, st.seeds[i])
	}
	st.ribs = st.seeds
	return st
}

func refSeedLocal(fv *FailVars, net *topo.Network, r *topo.Router, rc *config.Router, rib BGPRIB) {
	up := fv.RouterUp(r.ID)
	for _, pfx := range rc.Networks {
		rib[pfx] = append(rib[pfx], &BGPCand{
			Prefix: pfx, NextHop: r.Loopback, NextHopRouter: r.ID,
			Deliver: true, LocalPref: config.DefaultLocalPref, Guard: up,
		})
	}
	if rc.RedistributeStatic {
		for _, st := range rc.Statics {
			c := &BGPCand{
				Prefix: st.Prefix, NextHop: r.Loopback, NextHopRouter: r.ID,
				Discard: st.Discard, AdvertiseOnly: true,
				LocalPref: config.DefaultLocalPref, Guard: up,
			}
			if !st.Discard {
				if d, ok := net.DirLinkToAddr(st.NextHop); ok {
					c.Guard = fv.M.And(up, fv.EdgeUp(net.Edge(d)))
				}
			}
			rib[st.Prefix] = append(rib[st.Prefix], c)
		}
	}
}

// templates returns every router's advertisement templates for the
// upcoming round.
func (st *refStepper) templates() []map[netip.Prefix][]refTemplate {
	tpls := make([]map[netip.Prefix][]refTemplate, len(st.ribs))
	for i := range tpls {
		if st.member != nil && !st.member[i] {
			tpls[i] = st.stubTpls[i]
			continue
		}
		tpls[i] = refBuildTemplates(st.fv, st.ribs[i])
	}
	return tpls
}

func (st *refStepper) round() bool {
	tpls := st.templates()
	next := make([]BGPRIB, len(st.ribs))
	for i := range next {
		next[i] = make(BGPRIB)
		for pfx, cands := range st.seeds[i] {
			next[i][pfx] = append([]*BGPCand(nil), cands...)
		}
	}
	for _, s := range st.sessions {
		refAdvertise(st.fv, st.igp, tpls[s.from], next[s.to], s)
	}
	for i := range next {
		next[i] = refNormalize(st.fv, next[i])
	}
	stable := true
	for i := range next {
		if st.member != nil && !st.member[i] {
			continue
		}
		if !sameRIB(st.ribs[i], next[i]) {
			stable = false
			break
		}
	}
	st.ribs = next
	return stable
}

func (st *refStepper) setStubAdvs(r topo.RouterID, advs BorderTemplates) {
	var tpls map[netip.Prefix][]refTemplate
	if len(advs) > 0 {
		tpls = make(map[netip.Prefix][]refTemplate, len(advs))
		for pfx, as := range advs {
			ts := make([]refTemplate, len(as))
			for i, a := range as {
				ts[i] = refTemplate{cand: &BGPCand{Prefix: pfx, ASPath: a.ASPath}, groupSel: a.Sel}
			}
			tpls[pfx] = ts
		}
	}
	st.stubTpls[r] = tpls
}

func (st *refStepper) borderAdvs(r topo.RouterID) BorderTemplates {
	tpls := st.templates()[r]
	if len(tpls) == 0 {
		return nil
	}
	out := make(BorderTemplates, len(tpls))
	for pfx, ts := range tpls {
		advs := make([]BorderAdv, len(ts))
		for i, t := range ts {
			advs[i] = BorderAdv{ASPath: t.cand.ASPath, Sel: t.groupSel}
		}
		out[pfx] = advs
	}
	return out
}

func refBuildTemplates(fv *FailVars, rib BGPRIB) map[netip.Prefix][]refTemplate {
	m := fv.M
	out := make(map[netip.Prefix][]refTemplate, len(rib))
	for pfx, cands := range rib {
		sel := refSelectionGuards(fv, cands)
		var ts []refTemplate
		i := 0
		for i < len(cands) {
			j := i
			cand := cands[i]
			groupSel := m.Zero()
			for j < len(cands) && cands[j].SameRank(cands[i]) {
				if sel[j] != m.Zero() {
					groupSel = m.Or(groupSel, sel[j])
					if lessASPath(cands[j].ASPath, cand.ASPath) {
						cand = cands[j]
					}
				}
				j++
			}
			i = j
			if groupSel != m.Zero() {
				ts = append(ts, refTemplate{cand, fv.Reduce(groupSel)})
			}
		}
		if len(ts) > 0 {
			out[pfx] = ts
		}
	}
	return out
}

func refSelectionGuards(fv *FailVars, cands []*BGPCand) []*mtbdd.Node {
	m := fv.M
	out := make([]*mtbdd.Node, len(cands))
	better := m.Zero()
	i := 0
	for i < len(cands) {
		j := i
		groupOr := m.Zero()
		for j < len(cands) && cands[j].SameRank(cands[i]) {
			out[j] = fv.ReduceAnd(cands[j].Guard, m.Not(better))
			groupOr = m.Or(groupOr, cands[j].Guard)
			j++
		}
		better = fv.ReduceOr(better, groupOr)
		i = j
	}
	return out
}

func refAdvertise(fv *FailVars, igp *IGP, from map[netip.Prefix][]refTemplate, to BGPRIB, s session) {
	net := fv.Net
	m := fv.M
	var sessUp *mtbdd.Node
	if s.ebgp {
		sessUp = fv.EdgeUp(s.edge)
	} else {
		sessUp = igp.Reach(s.from, s.to)
	}
	if sessUp == m.Zero() {
		return
	}
	fromRouter := net.Router(s.from)
	toRouter := net.Router(s.to)
	for pfx, ts := range from {
		if denied(s.exportDeny, pfx) {
			continue
		}
		for _, tpl := range ts {
			cand := tpl.cand
			if !s.ebgp && !cand.FromEBGP && !(cand.Deliver || cand.Discard || cand.AdvertiseOnly) {
				continue
			}
			adv := &BGPCand{Prefix: pfx}
			if s.ebgp {
				if hasAS(cand.ASPath, toRouter.AS) {
					continue
				}
				adv.ASPath = append([]uint32{fromRouter.AS}, cand.ASPath...)
				adv.NextHop = s.edge.RemoteAddr
				adv.Direct = true
				adv.OutEdge = s.edge.DirLink
				adv.LocalPref = s.importPref
				adv.FromEBGP = true
			} else {
				adv.ASPath = cand.ASPath
				adv.NextHop = fromRouter.Loopback
				adv.NextHopRouter = s.from
				adv.LocalPref = cand.LocalPref
				if c, ok := igp.NoFailCost(s.to, s.from); ok {
					adv.IGPCost = c
				} else {
					adv.IGPCost = 1 << 50
				}
			}
			guard := fv.ReduceAnd(tpl.groupSel, sessUp)
			if guard == m.Zero() {
				continue
			}
			adv.Guard = guard
			to[pfx] = append(to[pfx], adv)
		}
	}
}

func refNormalize(fv *FailVars, rib BGPRIB) BGPRIB {
	m := fv.M
	out := make(BGPRIB, len(rib))
	for pfx, cands := range rib {
		merged := make(map[candKey]*BGPCand)
		var order []candKey
		for _, c := range cands {
			k := keyOf(c)
			if prev, ok := merged[k]; ok {
				prev.Guard = fv.ReduceOr(prev.Guard, c.Guard)
			} else {
				cc := *c
				merged[k] = &cc
				order = append(order, k)
			}
		}
		list := make([]*BGPCand, 0, len(order))
		for _, k := range order {
			if merged[k].Guard != m.Zero() {
				list = append(list, merged[k])
			}
		}
		sort.SliceStable(list, func(i, j int) bool { return list[i].better(list[j]) })
		kept := list[:0]
		better := m.Zero()
		i := 0
		for i < len(list) {
			j := i
			groupOr := m.Zero()
			for j < len(list) && list[j].SameRank(list[i]) {
				c := list[j]
				if feasible(fv, m.And(c.Guard, m.Not(better))) {
					kept = append(kept, c)
					groupOr = m.Or(groupOr, c.Guard)
				}
				j++
			}
			better = fv.ReduceOr(better, groupOr)
			i = j
		}
		if len(kept) > 0 {
			out[pfx] = kept
		}
	}
	return out
}

func sameRIB(a, b BGPRIB) bool {
	if len(a) != len(b) {
		return false
	}
	for pfx, ac := range a {
		bc, ok := b[pfx]
		if !ok || len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if keyOf(ac[i]) != keyOf(bc[i]) || ac[i].Guard != bc[i].Guard {
				return false
			}
		}
	}
	return true
}

// ---- comparison ----

func diffIGP(net *topo.Network, got, want *IGP) error {
	for r := range want.routes {
		from := net.Routers[r].Name
		if len(got.routes[r]) != len(want.routes[r]) || len(got.reach[r]) != len(want.reach[r]) {
			return fmt.Errorf("IGP at %s: %d route and %d reach destinations, reference has %d and %d",
				from, len(got.routes[r]), len(got.reach[r]), len(want.routes[r]), len(want.reach[r]))
		}
		for dest, wr := range want.routes[r] {
			gr := got.routes[r][dest]
			if len(gr) != len(wr) {
				return fmt.Errorf("IGP %s->%s: %d candidates, reference has %d", from, net.Routers[dest].Name, len(gr), len(wr))
			}
			for i := range wr {
				if gr[i] != wr[i] {
					return fmt.Errorf("IGP %s->%s candidate %d: %+v, reference has %+v", from, net.Routers[dest].Name, i, gr[i], wr[i])
				}
			}
		}
		for dest, wg := range want.reach[r] {
			if got.reach[r][dest] != wg {
				return fmt.Errorf("IGP reach %s->%s differs from the reference", from, net.Routers[dest].Name)
			}
		}
	}
	return nil
}

func diffRIBs(net *topo.Network, got, want []BGPRIB) error {
	for r := range want {
		at := net.Routers[r].Name
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("BGP at %s: %d prefixes, reference has %d", at, len(got[r]), len(want[r]))
		}
		for pfx, wc := range want[r] {
			gc := got[r][pfx]
			if len(gc) != len(wc) {
				return fmt.Errorf("BGP %s %s: %d candidates, reference has %d", at, pfx, len(gc), len(wc))
			}
			for i := range wc {
				g, w := *gc[i], *wc[i]
				if !slices.Equal(g.ASPath, w.ASPath) {
					return fmt.Errorf("BGP %s %s candidate %d: AS path %v, reference has %v", at, pfx, i, g.ASPath, w.ASPath)
				}
				g.ASPath, w.ASPath, g.path, w.path = nil, nil, 0, 0
				if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
					return fmt.Errorf("BGP %s %s candidate %d: %+v, reference has %+v", at, pfx, i, g, w)
				}
			}
		}
	}
	return nil
}

func diffBorderAdvs(got, want BorderTemplates) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d exported prefixes, reference has %d", len(got), len(want))
	}
	for pfx, wa := range want {
		ga := got[pfx]
		if !slices.EqualFunc(ga, wa, func(a, b BorderAdv) bool { return a.Sel == b.Sel && slices.Equal(a.ASPath, b.ASPath) }) {
			return fmt.Errorf("%s: exported %v, reference has %v", pfx, ga, wa)
		}
	}
	return nil
}

// CheckAgainstReference runs route simulation both ways in fv's manager
// and reports the first difference: IGP routes and reachability, then
// every round's RIBs and stability verdict up to the round budget.
// Exported (from a test file) for the difftest-driven sweep, which must
// live in package routesim_test to import internal/difftest.
func CheckAgainstReference(fv *FailVars, cfgs config.Configs, member []bool) error {
	net := fv.Net
	igp, refIGP := ComputeIGP(fv), referenceIGP(fv)
	if err := diffIGP(net, igp, refIGP); err != nil {
		return err
	}
	st, ref := NewStepper(fv, cfgs, igp, member), newRefStepper(fv, cfgs, refIGP, member)
	maxRounds := net.RoundBound()
	for round := 1; round <= maxRounds; round++ {
		stable, refStable := st.Round(), ref.round()
		if err := diffRIBs(net, st.Finish(round, stable).RIBs, ref.ribs); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if stable != refStable {
			return fmt.Errorf("round %d: stable=%v, reference says %v", round, stable, refStable)
		}
		if stable {
			break
		}
	}
	return nil
}

// ---- tests ----

var sweepBudgets = []int{-1, 0, 1, 2}

var sweepModes = []topo.FailureMode{topo.FailLinks, topo.FailRouters, topo.FailBoth}

func TestReferenceTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.yu")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec := mustSpec(t, func() (*config.Spec, error) { return config.ParseSpecString(string(text)) })
		for _, k := range sweepBudgets {
			for _, mode := range sweepModes {
				if spec.Net.NumRouters() > 20 && (k < 0 || k == 2 && mode != topo.FailLinks) {
					continue // unreduced or two-dimensional k=2 guards of a 48-router WAN: minutes, not coverage
				}
				fv := NewFailVars(mtbdd.New(), spec.Net, mode, k)
				if err := CheckAgainstReference(fv, spec.Configs, nil); err != nil {
					t.Errorf("%s k=%d %v: %v", filepath.Base(file), k, mode, err)
				}
			}
		}
	}
}

func TestReferenceBenchmarkShapes(t *testing.T) {
	for _, in := range []benchInput{wanK1(t), wanK2(t), wanPortfolio(t)} {
		if err := CheckAgainstReference(in.vars(), in.spec.Configs, nil); err != nil {
			t.Errorf("%s: %v", in.name, err)
		}
	}
}

// multiDomain returns a small gen.MultiDomain network and its partition.
func multiDomain(t testing.TB) (*config.Spec, *topo.Partition) {
	t.Helper()
	spec, err := gen.MultiDomain(gen.MultiDomainSpec{Domains: 4, RoutersPer: 8, PrefixesPer: 3, FlowsPer: 2, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.NewPartition(spec.Net, spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	return spec, part
}

func TestReferenceDomainSubnets(t *testing.T) {
	spec, part := multiDomain(t)
	for d := 0; d < part.NumDomains(); d++ {
		sub, err := part.Subnet(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range sweepBudgets {
			fv := NewFailVarsAliased(mtbdd.New(), spec.Net, sub, topo.FailLinks, k)
			if err := CheckAgainstReference(fv, spec.Configs, sub.Member); err != nil {
				t.Errorf("domain %d k=%d: %v", d, k, err)
			}
		}
	}
}

// TestReferenceStubInjection drives one domain Stepper and the naive one
// through the same SetStubAdvs injections — added, unchanged, changed in
// guard, changed in AS path, withdrawn, re-added, cleared — and checks
// every round's RIBs, exported templates and stability verdict.
func TestReferenceStubInjection(t *testing.T) {
	spec, part := multiDomain(t)
	sub, err := part.Subnet(0)
	if err != nil {
		t.Fatal(err)
	}
	fv := NewFailVarsAliased(mtbdd.New(), spec.Net, sub, topo.FailLinks, 2)
	m := fv.M
	var stubs, members []topo.RouterID
	for r, isMember := range sub.Member {
		if isMember {
			members = append(members, topo.RouterID(r))
		} else {
			stubs = append(stubs, topo.RouterID(r))
		}
	}
	if len(stubs) < 2 {
		t.Fatalf("domain 0 has %d border stubs, want at least 2", len(stubs))
	}
	border := func(i int) *mtbdd.Node { return fv.LinkUp(sub.Border[i%len(sub.Border)]) }
	pfxA, pfxB := netip.MustParsePrefix("100.9.0.0/24"), netip.MustParsePrefix("100.9.1.0/24")
	own := netip.MustParsePrefix("100.0.0.0/24") // also originated inside domain 0
	a1 := BorderTemplates{pfxA: {{ASPath: []uint32{2}, Sel: m.One()}}, own: {{ASPath: []uint32{2, 3}, Sel: border(0)}}}
	a2 := BorderTemplates{pfxA: {{ASPath: []uint32{2}, Sel: border(0)}}, own: {{ASPath: []uint32{2, 3}, Sel: border(0)}}}
	a3 := BorderTemplates{pfxA: {{ASPath: []uint32{2, 4}, Sel: border(0)}, {ASPath: []uint32{2, 5, 6}, Sel: m.Not(border(0))}}}
	b1 := BorderTemplates{pfxA: {{ASPath: []uint32{4}, Sel: border(1)}}, pfxB: {{ASPath: []uint32{4, 3}, Sel: m.One()}}}
	// script[i] is injected before round i+1; rounds past the script repeat
	// its last step until both steppers are stable.
	script := [][2]BorderTemplates{
		{a1, nil}, {a1, nil}, {a2, b1}, {a2, b1}, {a3, b1}, {a3, nil}, {nil, b1}, {a1, b1}, {nil, nil},
	}

	igp := ComputeIGP(fv)
	st, ref := NewStepper(fv, spec.Configs, igp, sub.Member), newRefStepper(fv, spec.Configs, igp, sub.Member)
	recomputed := 0
	for round := 1; ; round++ {
		step := script[min(round, len(script))-1]
		for i, advs := range step {
			st.SetStubAdvs(stubs[i], advs)
			ref.setStubAdvs(stubs[i], advs)
		}
		for _, r := range members {
			if err := diffBorderAdvs(st.BorderAdvs(r), ref.borderAdvs(r)); err != nil {
				t.Fatalf("round %d: templates of %s: %v", round, sub.Net.Routers[r].Name, err)
			}
		}
		stable, refStable := st.Round(), ref.round()
		bgp := st.Finish(round, stable)
		if err := diffRIBs(sub.Net, bgp.RIBs, ref.ribs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stable != refStable {
			t.Fatalf("round %d: stable=%v, reference says %v", round, stable, refStable)
		}
		if round > len(script) {
			if stable {
				// The confirming round re-reads nothing: no template moved.
				if bgp.stats.BGPRecomputed != recomputed {
					t.Errorf("stable round %d re-evaluated %d entries", round, bgp.stats.BGPRecomputed-recomputed)
				}
				break
			}
			if round > len(script)+sub.Net.RoundBound() {
				t.Fatal("steppers did not stabilise after the last injection")
			}
		}
		recomputed = bgp.stats.BGPRecomputed
	}
}
