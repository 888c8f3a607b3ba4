package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// The check stage as it stood before the n-ary kernels and the per-link
// class index, kept as the reference the production stage is held to: the
// flows × links map scan, the per-class ReduceMulAdd left fold, and the
// pruned loop that folded, took Range and tested its two stop rules class
// by class. Production must return the same node for every load, stop every
// pruned check at the same class, and report the same witness and value —
// pointer and DeepEqual equality.

// refGrouper groups as the check stage does, in first-seen order, with a
// fresh map per load: the reference shares no scratch with production.
type refGrouper struct {
	idx     map[*mtbdd.Node]int // nil: no grouping
	classes []scanClass
}

func newRefGrouper(group bool) refGrouper {
	var g refGrouper
	if group {
		g.idx = make(map[*mtbdd.Node]int)
	}
	return g
}

func (g *refGrouper) add(w *mtbdd.Node, vol float64) {
	if g.idx != nil {
		if i, ok := g.idx[w]; ok {
			g.classes[i].vol += vol
			return
		}
		g.idx[w] = len(g.classes)
	}
	g.classes = append(g.classes, scanClass{w: w, vol: vol})
}

// refLinkClasses probes every STF's link map for l, in STF order.
func refLinkClasses(v *Verifier, l topo.DirLinkID, stat *LinkCheckStat) []scanClass {
	g := newRefGrouper(!v.e.opts.DisableLinkLocalEquiv)
	for _, s := range v.stfs {
		if w := s.Links[l]; w != nil {
			stat.Flows++
			g.add(w, s.Flow.Gbps)
		}
	}
	stat.Classes += len(g.classes)
	return g.classes
}

// refSum is the deleted fold: one fused multiply-accumulate per class, each
// re-walking the running sum.
func refSum(v *Verifier, classes []scanClass) *mtbdd.Node {
	tau := v.e.m.Zero()
	for _, c := range classes {
		tau = v.e.fv.ReduceMulAdd(tau, v.e.m.Const(c.vol), c.w)
	}
	return tau
}

// refLoad is Verifier.load over the reference fold (and, for links, the
// reference class scan).
func refLoad(v *Verifier, s Subject) (*mtbdd.Node, LinkCheckStat) {
	var stat LinkCheckStat
	switch {
	case len(s.Links) > 0:
		stat.Kind = "aggregate"
		taus := make([]*mtbdd.Node, len(s.Links))
		for i, l := range s.Links {
			taus[i] = refSum(v, refLinkClasses(v, l, &stat))
		}
		if s.Max {
			tau := v.e.m.Zero()
			for _, t := range taus {
				tau = v.e.m.MaxK(tau, t, v.e.fv.K)
			}
			return tau, stat
		}
		return v.e.m.AddNK(taus, v.e.fv.K), stat
	case s.Prefix.IsValid():
		stat.Kind, stat.Prefix = "delivered", s.Prefix
		return refSum(v, v.deliveredClasses(s.Prefix, &stat)), stat
	}
	stat.Link = s.Link
	return refSum(v, refLinkClasses(v, s.Link, &stat)), stat
}

// refCheckLinkPruned is the pruned loop before the n-ary kernels. stop is
// the number of classes folded when a stop rule fired (0 for the quick
// bound); holds reports a link passed without a terminal scan.
func refCheckLinkPruned(v *Verifier, it Plan) (stat LinkCheckStat, viols []Violation, stop int, holds bool) {
	m := v.e.m
	l, limit := it.Subject.Link, it.Checks[0].Max
	stat = LinkCheckStat{Link: l}
	classes := refLinkClasses(v, l, &stat)
	for i := range classes {
		_, hi := m.Range(classes[i].w)
		classes[i].max = hi
	}
	threshold := violThreshold(limit)
	total := 0.0
	for _, c := range classes {
		total += float64(c.vol * c.max)
	}
	if total <= threshold {
		return stat, nil, 0, true
	}
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].vol*classes[i].max > classes[j].vol*classes[j].max })
	remaining := total
	tau := m.Zero()
	for _, c := range classes {
		tau = v.e.fv.ReduceMulAdd(tau, m.Const(c.vol), c.w)
		stop++
		remaining -= float64(c.vol * c.max)
		_, hi := m.Range(tau)
		if hi > threshold {
			break
		}
		if hi+remaining <= threshold {
			return stat, nil, stop, true
		}
	}
	res, _ := v.scanPortfolio(tau, it.Checks)
	if r := &res[0]; r.Violated {
		assign := v.e.fv.Scenario(r.FailedLinks, r.FailedRouters)
		exact := 0.0
		for _, c := range classes {
			exact += float64(c.vol * m.Eval(c.w, assign))
		}
		if exact > r.Value {
			r.Value = exact
		}
	}
	return stat, violations(it, res[0]), stop, false
}

// sameStat compares what a check reports about its effort, Elapsed aside.
func sameStat(a, b LinkCheckStat) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return a == b
}

// compareVerifier holds the verifier's check stage to the reference on every
// directed link's load and on every item of a Run request — the spec's
// bounds, its delivered bounds and the all-links overload check at each of
// the given factors, pruned unless the engine's ablation says otherwise.
// linkStride > 1 samples the full-load comparison (the reference fold is
// what made the check stage slow).
func compareVerifier(v *Verifier, spec *config.Spec, factors []float64, linkStride int) error {
	if err := v.Err(); err != nil {
		return err
	}
	net := v.e.net
	for d := 0; d < 2*net.NumLinks(); d += linkStride {
		v.e.maybeGC(v.stfs, nil)
		s := Subject{Link: topo.DirLinkID(d)}
		got, gstat := v.load(s)
		want, wstat := refLoad(v, s)
		if got != want {
			return fmt.Errorf("load of %s: node differs from the reference fold's (%d vs %d nodes)",
				net.DirLinkName(s.Link), v.e.m.NodeCount(got), v.e.m.NodeCount(want))
		}
		if !sameStat(gstat, wstat) {
			return fmt.Errorf("load of %s: stat %+v, reference %+v", net.DirLinkName(s.Link), gstat, wstat)
		}
	}
	if net.NumLinks() >= 2 {
		for _, max := range []bool{false, true} {
			s := Subject{Links: []topo.DirLinkID{0, 1, 2, 3}, Max: max}
			got, gstat := v.load(s)
			if want, wstat := refLoad(v, s); got != want || !sameStat(gstat, wstat) {
				return fmt.Errorf("aggregate load (max=%v) differs from the reference", max)
			}
		}
	}
	for _, factor := range factors {
		for _, it := range lower(net, spec.Props, spec.Delivered, factor) {
			name := net.DirLinkName(it.Subject.Link)
			if it.Subject.Prefix.IsValid() {
				name = "delivered " + it.Subject.Prefix.String()
			}
			v.e.maybeGC(v.stfs, nil)
			gres, _, gstat := v.check(it)
			gviols := violations(it, gres[0])
			var wstat LinkCheckStat
			var wviols []Violation
			if it.pruned {
				var wstop int
				var wholds bool
				wstat, wviols, wstop, wholds = refCheckLinkPruned(v, it)
				var scratch LinkCheckStat
				gstop, gholds := v.prune(v.linkClasses(it.Subject.Link, &scratch), violThreshold(it.Checks[0].Max))
				if gstop != wstop || gholds != wholds {
					return fmt.Errorf("pruned check of %s at factor %g: stops at class %d (holds %v), reference at %d (holds %v)",
						name, factor, gstop, gholds, wstop, wholds)
				}
			} else {
				tau, st := refLoad(v, it.Subject)
				res, _ := v.scanPortfolio(tau, it.Checks)
				wstat, wviols = st, violations(it, res[0])
			}
			if !sameStat(gstat, wstat) {
				return fmt.Errorf("check of %s at factor %g: stat %+v, reference %+v", name, factor, gstat, wstat)
			}
			if !reflect.DeepEqual(gviols, wviols) {
				return fmt.Errorf("check of %s at factor %g: violations %+v, reference %+v", name, factor, gviols, wviols)
			}
		}
	}
	return nil
}

// referenceFactors spread the overload limit so that all three ends of the
// pruned check occur: links the quick bound passes, links a prefix maximum
// settles, and links that stop on a violation.
var referenceFactors = []float64{1.0, 0.5, 0.1}

// capacityBounds is the all-links overload check at factor as explicit
// per-link bounds. lower never prunes an explicit bound, so checking them
// builds and scans every link's load: the check without §6's early
// termination, the way the paper harness's Fig 13 cells run it.
func capacityBounds(net *topo.Network, factor float64) []topo.LoadBound {
	bounds := make([]topo.LoadBound, net.NumLinks())
	for i := range bounds {
		l := net.Link(topo.LinkID(i))
		bounds[i] = topo.LoadBound{Link: l.ID, Max: l.Capacity * factor}
	}
	return bounds
}

// TestCheckMatchesReferenceTestdata: every checked-in spec, at every budget
// from 0 to 3 in all three failure modes, under the two ablations that
// change what the check stage aggregates, and without early termination.
func TestCheckMatchesReferenceTestdata(t *testing.T) {
	modes := []topo.FailureMode{topo.FailLinks, topo.FailRouters, topo.FailBoth}
	for file, spec := range testdataSpecs(t) {
		for _, mode := range modes {
			for k := 0; k <= 3; k++ {
				name := fmt.Sprintf("%s/%v/k=%d", file, mode, k)
				eng := buildEngine(t, spec, mode, k, Options{})
				if err := compareVerifier(NewVerifier(eng, spec.Flows), spec, referenceFactors, 1); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
		for name, tc := range map[string]struct {
			k    int
			opts Options
		}{
			"no-link-local-equiv": {2, Options{DisableLinkLocalEquiv: true}},
			"no-kreduce":          {-1, Options{CheckK: 2}},
		} {
			if tc.k < 0 && spec.Net.NumRouters() > 10 {
				continue // unreduced execution of wan-1 alone takes minutes
			}
			eng := buildEngine(t, spec, topo.FailLinks, tc.k, tc.opts)
			if err := compareVerifier(NewVerifier(eng, spec.Flows), spec, referenceFactors, 1); err != nil {
				t.Errorf("%s/%s: %v", file, name, err)
			}
		}
		v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 2, Options{}), spec.Flows)
		for _, factor := range referenceFactors {
			bounded := *spec
			bounded.Props = capacityBounds(spec.Net, factor)
			if err := compareVerifier(v, &bounded, []float64{0}, 1); err != nil {
				t.Errorf("%s/capacity-bounds at %g: %v", file, factor, err)
			}
		}
	}
}

// benchShape is one of the repository benchmark's three WAN inputs
// (benchmark/workloads.go) at seed 13: topology and traffic.
type benchShape struct {
	name                     string
	routers, links, prefixes int
	topoSeed                 int64
	flows                    int
	flowSeed                 int64
	k                        int
}

var benchShapes = []benchShape{
	{"wan-k1", 120, 300, 60, 11, 6000, 13*4 + 101, 1},
	{"wan-k2", 50, 100, 32, 3, 2500, 13*4 + 100, 2},
	{"portfolio-1k", 80, 160, 48, 10, 4000, 13*4 + 100, 1},
}

func (sh benchShape) spec(tb testing.TB) *config.Spec {
	tb.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: sh.routers, Links: sh.links, Prefixes: sh.prefixes, SRPolicyFraction: 0.1, Seed: sh.topoSeed})
	if err != nil {
		tb.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: sh.flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: sh.flowSeed})
	if err != nil {
		tb.Fatal(err)
	}
	spec.K = sh.k
	return spec
}

func (sh benchShape) verifier(tb testing.TB, opts Options) (*config.Spec, *Verifier) {
	tb.Helper()
	spec := sh.spec(tb)
	v := NewVerifier(buildEngine(tb, spec, topo.FailLinks, sh.k, opts), spec.Flows)
	if err := v.Err(); err != nil {
		tb.Fatal(err)
	}
	return spec, v
}

// TestCheckMatchesReferenceBenchShapes: the three benchmark WANs, where a
// link carries a hundred classes and more. Every pruned check is compared;
// the full loads, whose reference fold is the slow part, on every link
// (-short: one in eight).
func TestCheckMatchesReferenceBenchShapes(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	for _, sh := range benchShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			// A low collection threshold: the reference folds leave a
			// million dead nodes behind on these inputs.
			spec, v := sh.verifier(t, Options{GCThreshold: 1 << 18})
			if err := compareVerifier(v, spec, []float64{1.0}, stride); err != nil {
				t.Error(err)
			}
		})
	}
}

// Symbolic execution as it stood before the wavefront moved into slices and
// steps and STFs were shared by behaviour, kept as the reference the
// production path is held to: front, next front, per-link accumulators and
// step outs in maps keyed by (router | link, decimal stack key), sorted on
// every visit; steps cached per (router, destination class, DSCP[, stack]);
// every class executed. It reads the engine's route-simulation result,
// classifier and IGP vectors and keeps its own step caches. Production must
// return, for every class, the same node on every link and for Delivered,
// Dropped and InFlight, the same link set and the same Iterations.

// refKey is the decimal stack key the maps were keyed by — and the order
// stackTab must reproduce.
func refKey(s stack) string {
	var buf []byte
	for _, r := range s {
		buf = strconv.AppendInt(buf, int64(r), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

type refInKey struct {
	router   topo.RouterID
	stackKey string
}

type refInVal struct {
	stack stack
	omega *mtbdd.Node
}

type refOutKey struct {
	link     topo.DirLinkID
	stackKey string
}

type refStepOut struct {
	frac  *mtbdd.Node
	stack stack
}

type refStep struct {
	out                map[refOutKey]refStepOut
	delivered, dropped *mtbdd.Node
}

type refIPKey struct {
	router topo.RouterID
	class  int
	dscp   uint8
}

type refSRKey struct {
	router   topo.RouterID
	class    int
	dscp     uint8
	stackKey string
}

// refExec is the reference executor over one engine.
type refExec struct {
	e       *Engine
	ipCache map[refIPKey]*refStep
	srCache map[refSRKey]*refStep
}

func newRefExec(e *Engine) *refExec {
	return &refExec{e: e, ipCache: make(map[refIPKey]*refStep), srCache: make(map[refSRKey]*refStep)}
}

func refSortedFront(front map[refInKey]refInVal) []refInKey {
	keys := make([]refInKey, 0, len(front))
	for k := range front {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].router != keys[j].router {
			return keys[i].router < keys[j].router
		}
		return keys[i].stackKey < keys[j].stackKey
	})
	return keys
}

func refSortedOut(out map[refOutKey]refStepOut) []refOutKey {
	keys := make([]refOutKey, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].link != keys[j].link {
			return keys[i].link < keys[j].link
		}
		return keys[i].stackKey < keys[j].stackKey
	})
	return keys
}

func (x *refExec) executeFlow(f topo.Flow) *FlowSTF {
	e := x.e
	m, fv := e.m, e.fv
	res := &FlowSTF{
		Flow:      f,
		Links:     make(map[topo.DirLinkID]*mtbdd.Node),
		Delivered: m.Zero(),
		Dropped:   m.Zero(),
		InFlight:  m.Zero(),
	}
	class := e.classifier.classOf(f.Dst)
	ingressUp := fv.RouterUp(f.Ingress)
	front := map[refInKey]refInVal{{f.Ingress, ""}: {nil, ingressUp}}
	res.Dropped = fv.Reduce(m.Not(ingressUp))

	iter := 0
	for len(front) > 0 && iter < e.maxIter {
		iter++
		next := make(map[refInKey]refInVal)
		for _, k := range refSortedFront(front) {
			in := front[k]
			var st *refStep
			if len(in.stack) == 0 {
				st = x.forwardIp(k.router, class, f.DSCP)
			} else {
				st = x.forwardSr(k.router, class, f.DSCP, in.stack)
			}
			if st.delivered != m.Zero() {
				res.Delivered = fv.ReduceMulAdd(res.Delivered, in.omega, st.delivered)
			}
			if st.dropped != m.Zero() {
				res.Dropped = fv.ReduceMulAdd(res.Dropped, in.omega, st.dropped)
			}
			for _, ok2 := range refSortedOut(st.out) {
				o := st.out[ok2]
				t := fv.ReduceMul(in.omega, o.frac)
				if t == m.Zero() {
					continue
				}
				link := ok2.link
				if prev, ok := res.Links[link]; ok {
					res.Links[link] = fv.ReduceAdd(prev, t)
				} else {
					res.Links[link] = t
				}
				nk := refInKey{e.net.Edge(link).To, ok2.stackKey}
				if prev, ok := next[nk]; ok {
					next[nk] = refInVal{o.stack, fv.ReduceAdd(prev.omega, t)}
				} else {
					next[nk] = refInVal{o.stack, t}
				}
			}
		}
		front = next
	}
	res.Iterations = iter
	for _, k := range refSortedFront(front) {
		res.InFlight = fv.ReduceAdd(res.InFlight, front[k].omega)
	}
	return res
}

func (x *refExec) forwardIp(r topo.RouterID, class int, dscp uint8) *refStep {
	key := refIPKey{r, class, dscp}
	if s, ok := x.ipCache[key]; ok {
		return s
	}
	s := x.buildIPStep(r, class, dscp, 0)
	x.ipCache[key] = s
	return s
}

func (x *refExec) buildIPStep(r topo.RouterID, class int, dscp uint8, depth int) *refStep {
	e := x.e
	m, fv := e.m, e.fv
	st := &refStep{out: make(map[refOutKey]refStepOut), delivered: m.Zero(), dropped: m.Zero()}
	groups := e.ruleGroups(r, class)
	if len(groups) == 0 {
		st.dropped = m.One()
		return st
	}
	type selRule struct {
		rule
		sel *mtbdd.Node
	}
	var rules []selRule
	var sels []*mtbdd.Node
	better := m.Zero()
	for _, grp := range groups {
		groupOr := m.Zero()
		for _, ru := range grp {
			sel := fv.ReduceAnd(ru.guard, m.Not(better))
			rules = append(rules, selRule{ru, sel})
			sels = append(sels, sel)
			groupOr = m.Or(groupOr, ru.guard)
		}
		better = fv.ReduceOr(better, groupOr)
	}
	total := fv.ReduceSum(sels)
	st.dropped = m.Add(st.dropped, fv.Reduce(m.Not(fv.ReduceMin(total, m.One()))))
	for _, ru := range rules {
		if ru.sel == m.Zero() {
			continue
		}
		c := fv.ReduceDiv(ru.sel, total)
		switch {
		case ru.deliver:
			st.delivered = fv.ReduceAdd(st.delivered, c)
		case ru.discard:
			st.dropped = fv.ReduceAdd(st.dropped, c)
		case ru.direct:
			x.addOut(st, ru.out, nil, c)
		default:
			x.resolveNhIP(st, r, class, dscp, ru.rule, c, depth)
		}
	}
	return st
}

// refMatchSRPolicy is the first-match policy lookup, with no notion of
// DSCP-sensitivity.
func refMatchSRPolicy(e *Engine, r topo.RouterID, nip netip.Addr, dscp uint8) *routesim.GuardedSRPolicy {
	for i := range e.rs.SR[r] {
		if e.rs.SR[r][i].Matches(nip, dscp) {
			return &e.rs.SR[r][i]
		}
	}
	return nil
}

func (x *refExec) resolveNhIP(st *refStep, r topo.RouterID, class int, dscp uint8, ru rule, c *mtbdd.Node, depth int) {
	e := x.e
	m, fv := e.m, e.fv
	if pol := refMatchSRPolicy(e, r, ru.viaAddr, dscp); pol != nil && depth < maxSRChain {
		denom := m.Zero()
		for _, p := range pol.Paths {
			denom = fv.ReduceMulAdd(denom, m.Const(float64(p.Weight)), p.Guard)
		}
		served := m.Zero()
		for _, p := range pol.Paths {
			cp := fv.ReduceDiv(m.Scale(float64(p.Weight), p.Guard), denom)
			if cp == m.Zero() {
				continue
			}
			served = fv.ReduceAdd(served, cp)
			x.emitSR(st, r, class, dscp, stack(p.Segments), fv.ReduceMul(c, cp), depth+1)
		}
		rem := fv.ReduceMul(c, m.Sub(m.One(), served))
		st.dropped = fv.ReduceAdd(st.dropped, rem)
		return
	}
	vec := e.igpVec(r, ru.viaRouter)
	for _, lf := range vec.perLink {
		x.addOut(st, lf.link, nil, fv.ReduceMul(c, lf.frac))
	}
	st.dropped = fv.ReduceAdd(st.dropped, fv.ReduceMul(c, m.Sub(m.One(), vec.total)))
}

func (x *refExec) emitSR(st *refStep, r topo.RouterID, class int, dscp uint8, s stack, w *mtbdd.Node, depth int) {
	e := x.e
	m, fv := e.m, e.fv
	for len(s) > 0 && s[0] == r {
		s = s[1:]
	}
	if len(s) == 0 {
		sub := x.buildIPStep(r, class, dscp, depth)
		st.delivered = fv.ReduceMulAdd(st.delivered, w, sub.delivered)
		st.dropped = fv.ReduceMulAdd(st.dropped, w, sub.dropped)
		for k, o := range sub.out {
			x.addOut(st, k.link, o.stack, fv.ReduceMul(w, o.frac))
		}
		return
	}
	vec := e.igpVec(r, s[0])
	for _, lf := range vec.perLink {
		x.addOut(st, lf.link, s, fv.ReduceMul(w, lf.frac))
	}
	st.dropped = fv.ReduceAdd(st.dropped, fv.ReduceMul(w, m.Sub(m.One(), vec.total)))
}

func (x *refExec) forwardSr(r topo.RouterID, class int, dscp uint8, s stack) *refStep {
	key := refSRKey{r, class, dscp, refKey(s)}
	if st, ok := x.srCache[key]; ok {
		return st
	}
	m := x.e.m
	st := &refStep{out: make(map[refOutKey]refStepOut), delivered: m.Zero(), dropped: m.Zero()}
	x.emitSR(st, r, class, dscp, s, m.One(), 0)
	x.srCache[key] = st
	return st
}

func (x *refExec) addOut(st *refStep, l topo.DirLinkID, s stack, frac *mtbdd.Node) {
	if frac == x.e.m.Zero() {
		return
	}
	k := refOutKey{l, refKey(s)}
	if prev, ok := st.out[k]; ok {
		st.out[k] = refStepOut{frac: x.e.fv.ReduceAdd(prev.frac, frac), stack: s}
	} else {
		st.out[k] = refStepOut{frac: frac, stack: s}
	}
}

// sameSTF holds one STF to the reference's, node for node.
func sameSTF(got, want *FlowSTF) error {
	if got.Flow != want.Flow {
		return fmt.Errorf("flow %v, reference %v", got.Flow, want.Flow)
	}
	if got.Delivered != want.Delivered || got.Dropped != want.Dropped || got.InFlight != want.InFlight {
		return fmt.Errorf("delivered/dropped/in-flight nodes differ from the reference's")
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("%d iterations, reference %d", got.Iterations, want.Iterations)
	}
	if len(got.Links) != len(want.Links) {
		return fmt.Errorf("%d links, reference %d", len(got.Links), len(want.Links))
	}
	for l, w := range want.Links {
		if got.Links[l] != w {
			return fmt.Errorf("link %d: node differs from the reference's", l)
		}
	}
	return nil
}

// compareExecution executes every class representative of the verifier's
// engine by the reference, in the verifier's manager, and holds the
// verifier's finished STFs to the result. The engine must not be trimmed.
func compareExecution(v *Verifier) error {
	if err := v.Err(); err != nil {
		return err
	}
	if len(v.stfs) != len(v.classes) {
		return fmt.Errorf("%d STFs for %d classes", len(v.stfs), len(v.classes))
	}
	ref := newRefExec(v.e)
	for i, cl := range v.classes {
		if err := sameSTF(v.stfs[i], ref.executeFlow(cl.rep)); err != nil {
			return fmt.Errorf("class %d (%v): %w", i, cl.rep, err)
		}
	}
	return nil
}
