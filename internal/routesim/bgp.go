package routesim

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// BGPCand is one guarded BGP route candidate in a router's guarded RIB.
// Candidates are ordered by the (static) BGP decision process — the guard
// only gates presence, never preference, exactly as in the paper's guarded
// RIB semantics (§4.1).
type BGPCand struct {
	Prefix netip.Prefix
	// NextHop is the route's next hop: an interface address for direct
	// (eBGP-learned) routes, a loopback for indirect (iBGP) routes.
	NextHop netip.Addr
	// Direct is true when NextHop is a directly connected interface, in
	// which case OutEdge is the directed link to use. Indirect next hops
	// go through route iteration (IGP or SR policy, §4.4).
	Direct  bool
	OutEdge topo.DirLinkID
	// NextHopRouter is the owner of a loopback NextHop (indirect routes).
	NextHopRouter topo.RouterID
	// Deliver marks a locally originated network: matching traffic
	// terminates at this router (the destination is attached).
	Deliver bool
	// Discard marks a redistributed discard static: matching traffic
	// arriving here is dropped.
	Discard bool
	// AdvertiseOnly marks a local candidate that exists for export but
	// is not installed for forwarding (redistributed statics: the static
	// itself already forwards locally at a better admin distance).
	AdvertiseOnly bool
	ASPath        []uint32
	LocalPref     uint32
	FromEBGP      bool
	// IGPCost is the static (no-failure) IGP metric from this router to
	// the route's next hop — the hot-potato tiebreak of the decision
	// process. Direct and local routes have cost 0.
	IGPCost int64
	Guard   *mtbdd.Node

	// path is ASPath's id in the pathTable of the Stepper that built the
	// candidate; it has no meaning outside that Stepper.
	path int32
}

// local reports a candidate seeded from the router's own configuration.
func (a *BGPCand) local() bool { return a.Deliver || a.Discard || a.AdvertiseOnly }

// better reports whether a is strictly preferred to b under the static BGP
// decision process: local preference, locally-originated, AS-path length,
// eBGP over iBGP, IGP cost. Remaining ties mean ECMP multipath (the paper's
// B load-balancing over C and D).
func (a *BGPCand) better(b *BGPCand) bool { return a.rank().compare(b.rank()) < 0 }

// rank is the candidate's rank key.
func (a *BGPCand) rank() rankKey {
	return rankKey{localPref: a.LocalPref, local: a.local(), pathLen: int32(len(a.ASPath)), ebgp: a.FromEBGP, igpCost: a.IGPCost}
}

// rankKey is what the decision process compares of a candidate, in the
// order it compares it. Two candidates tie (SameRank) exactly when their
// keys are equal.
type rankKey struct {
	localPref   uint32
	pathLen     int32
	igpCost     int64
	local, ebgp bool
}

// compare is negative when a is strictly preferred to b, positive when b
// is, and zero on a tie.
func (a rankKey) compare(b rankKey) int {
	if a.localPref != b.localPref {
		return cmp.Compare(b.localPref, a.localPref)
	}
	if a.local != b.local {
		return preferTrue(a.local)
	}
	if a.pathLen != b.pathLen {
		return cmp.Compare(a.pathLen, b.pathLen)
	}
	if a.ebgp != b.ebgp {
		return preferTrue(a.ebgp)
	}
	return cmp.Compare(a.igpCost, b.igpCost)
}

// preferTrue orders two differing flags, true first: a is one of them.
func preferTrue(a bool) int {
	if a {
		return -1
	}
	return 1
}

// SameRank reports that a and b tie in the decision process: both belong
// to the same ECMP multipath set when simultaneously present.
func (a *BGPCand) SameRank(b *BGPCand) bool { return a.rank() == b.rank() }

// sameRoute reports that a and b, candidates of one Stepper, are the same
// route in everything but their guards: RIB normalisation merges them into
// one candidate present when either is.
func (a *BGPCand) sameRoute(b *BGPCand) bool {
	return a.path == b.path && a.OutEdge == b.OutEdge && a.NextHop == b.NextHop &&
		a.LocalPref == b.LocalPref && a.IGPCost == b.IGPCost &&
		a.Direct == b.Direct && a.FromEBGP == b.FromEBGP &&
		a.Deliver == b.Deliver && a.Discard == b.Discard && a.AdvertiseOnly == b.AdvertiseOnly
}

// pathTable interns AS paths as integer ids. Id 0 is the empty path and
// every other path is (first AS, id of the rest), so equal paths get
// equal ids however they were derived and an eBGP prepend is one lookup.
type pathTable struct {
	paths     [][]uint32
	prepended map[uint64]int32 // first AS << 32 | id of the rest -> id
}

func newPathTable() pathTable {
	return pathTable{paths: [][]uint32{nil}, prepended: make(map[uint64]int32)}
}

func (t *pathTable) prepend(as uint32, rest int32) int32 {
	key := uint64(as)<<32 | uint64(uint32(rest))
	id, ok := t.prepended[key]
	if !ok {
		path := make([]uint32, 0, len(t.paths[rest])+1)
		path = append(append(path, as), t.paths[rest]...)
		id = int32(len(t.paths))
		t.paths = append(t.paths, path)
		t.prepended[key] = id
	}
	return id
}

func (t *pathTable) intern(path []uint32) int32 {
	id := int32(0)
	for i := len(path) - 1; i >= 0; i-- {
		id = t.prepend(path[i], id)
	}
	return id
}

// BGPRIB is one router's guarded BGP RIB: candidates per prefix, sorted by
// preference (most preferred first).
type BGPRIB map[netip.Prefix][]*BGPCand

// BGP holds the converged symbolic BGP state of all routers.
type BGP struct {
	RIBs []BGPRIB // indexed by RouterID
	// Converged reports whether the fixed point was reached within the
	// round budget.
	Converged bool
	Rounds    int

	stats Stats // the BGP fields
	// changing names a few RIB entries that moved in the last round of a
	// run that did not converge.
	changing []string
}

type session struct {
	from, to topo.RouterID
	ebgp     bool
	// edge is the directed link from -> to for eBGP sessions.
	edge topo.DirEdge
	// importPref is the local-pref the receiver assigns (eBGP import).
	importPref uint32
	exportDeny []netip.Prefix

	// up is the session-liveness guard: the link for eBGP, IGP
	// reachability between the loopbacks for iBGP (endpoint liveness is
	// part of reach).
	up *mtbdd.Node
	// igpCost is the receiver's static IGP cost to the sender, the
	// hot-potato tiebreak of iBGP-learned routes.
	igpCost int64
}

// ComputeBGP runs symbolic BGP route propagation to a fixed point:
// synchronous rounds in which every router recomputes its guarded RIB from
// its local originations and the guarded advertisements of its neighbors'
// previous-round RIBs. Advertisements carry the sender's *selection* guard
// (paper Fig 6: m4's guard is the disjunction of equally preferred m2, m3).
func ComputeBGP(fv *FailVars, cfgs config.Configs, igp *IGP) *BGP {
	return NewStepper(fv, cfgs, igp, nil, nil).run()
}

// run drives a monolithic Stepper to its fixed point or the round budget.
func (st *Stepper) run() *BGP {
	maxRounds := st.fv.Net.RoundBound()
	for round := 1; ; round++ {
		if stable := st.Round(); stable || round >= maxRounds {
			return st.Finish(round, stable)
		}
	}
}

// Stepper exposes BGP propagation one synchronous round at a time, so a
// compositional coordinator (internal/compose) can run several domains'
// steppers in lockstep, exchanging border advertisement templates between
// rounds. ComputeBGP is itself implemented on the Stepper, so the
// monolithic path and the per-domain path execute the identical per-round
// sequence — the foundation of the modular-equals-monolithic guarantee.
//
// A round is synchronous in what it reads, not in what it recomputes: a
// RIB entry (router, prefix) is a function of the router's seeds and of
// its session peers' previous-round advertisement templates for that
// prefix, so only entries with a peer whose template moved are evaluated
// again, and only entries that moved get a new template (DESIGN.md §19).
type Stepper struct {
	b  *BGP
	fv *FailVars
	// member is nil for a monolithic run (every router counts toward
	// stability). In a domain run it flags the domain's own routers:
	// border stubs neither count toward stability nor build their own
	// advertisement templates — their templates are injected.
	member []bool
	// only is nil for a run over every prefix. Otherwise the run seeds, and
	// so computes, only the prefixes it accepts (carry.go).
	only func(netip.Prefix) bool

	// sessions is in global order: it decides the insertion order of
	// equally preferred candidates. in and out index the sessions that can
	// ever be up by receiver and by sender, ascending.
	sessions []session
	in, out  [][]int32

	paths    pathTable
	prefixes []netip.Prefix
	prefixID map[netip.Prefix]int32
	routers  []ribState

	// changed lists a few of the entries that moved in the last Round.
	changed []entryRef

	offers  []offer
	scratch []BGPCand
	kept    []int32
	cands   []BGPCand  // slab new candidates are cut from
	lists   []*BGPCand // slab RIB entries are cut from
}

// ribState is one router's BGP state, every slice indexed by prefix id.
type ribState struct {
	seed [][]*BGPCand
	rib  [][]*BGPCand
	// tpl is what the router advertises this round: built from rib, or
	// injected for a border stub.
	tpl [][]advTemplate
	// stale marks entries of rib that moved since tpl was built from them.
	stale []bool
	// wake marks entries to evaluate in the next Round: a peer's template
	// for the prefix moved.
	wake []bool
}

type entryRef struct {
	r topo.RouterID
	p int32
}

// maxChanging bounds how many moving entries a not-converged run names.
const maxChanging = 4

// NewStepper builds the session graph and seed RIBs for net under cfgs.
// Sessions are directional: one entry per (advertiser -> receiver).
// Configs are walked in sorted-name order: session order decides the
// insertion order of equally preferred RIB candidates, and float
// accumulation downstream (ECMP splits summed per rank group) is not
// associative — map-iteration order would make verification results
// vary across processes. Configs naming routers absent from fv.Net are
// skipped, which is what lets a domain run receive the full global
// config set.
//
// only, when non-nil, restricts the run to the prefixes it accepts: the
// others are never seeded, so no router learns them. A RIB entry (r, p)
// reads only r's seeds for p and its peers' templates for p, so a
// restricted run computes every accepted prefix exactly as a run over all
// of them would, round for round (DESIGN.md §14).
func NewStepper(fv *FailVars, cfgs config.Configs, igp *IGP, member []bool, only func(netip.Prefix) bool) *Stepper {
	start := time.Now()
	net := fv.Net
	st := &Stepper{
		b:        &BGP{},
		fv:       fv,
		member:   member,
		only:     only,
		in:       make([][]int32, net.NumRouters()),
		out:      make([][]int32, net.NumRouters()),
		paths:    newPathTable(),
		prefixID: make(map[netip.Prefix]int32),
		routers:  make([]ribState, net.NumRouters()),
	}
	defer st.clock(start)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rc := cfgs[name]
		r, _ := net.RouterByName(name)
		if r == nil {
			continue
		}
		st.seedLocal(r, rc)
		// The receiver's config declares the session; build the
		// advertiser->receiver direction here.
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
				// Advertisements flow peer -> r over the reverse edge;
				// keep the edge for the session-up guard and for the
				// receiver's outgoing direction toward the peer.
				st.sessions = append(st.sessions, session{from: e.To, to: r.ID, ebgp: true, edge: e, importPref: pref})
			}
		}
	}
	denies := exportDenies(net, names, cfgs)
	for i := range st.sessions {
		s := &st.sessions[i]
		s.exportDeny = denies[sessionEnds{s.from, s.to}]
		if s.ebgp {
			s.up = fv.EdgeUp(s.edge)
		} else {
			s.up = igp.Reach(s.from, s.to)
			if c, ok := igp.NoFailCost(s.to, s.from); ok {
				s.igpCost = c
			} else {
				s.igpCost = 1 << 50
			}
		}
		if s.up == fv.M.Zero() {
			continue // never up: nothing crosses it, so nobody listens on it
		}
		st.in[s.to] = append(st.in[s.to], int32(i))
		st.out[s.from] = append(st.out[s.from], int32(i))
	}
	// Seeds become the initial RIBs; every seeded entry owes a template.
	for r := range st.routers {
		rs := &st.routers[r]
		for p := range rs.seed {
			if len(rs.seed[p]) == 0 {
				continue
			}
			st.offerSeeds(rs.seed[p])
			rs.seed[p] = st.commit(st.selectOffers(topo.RouterID(r), int32(p)))
			rs.rib[p] = rs.seed[p]
			rs.stale[p] = st.advertises(topo.RouterID(r))
		}
	}
	return st
}

// sessionEnds names a directed session: exporter, then receiver.
type sessionEnds struct{ from, to topo.RouterID }

// exportDenies returns the export-deny list of every directed session that
// has one. The exporter's config declares it on the neighbor entry naming
// the receiver; when several entries name the same receiver, the last
// non-empty list holds. names lists the configs in sorted order.
func exportDenies(net *topo.Network, names []string, cfgs config.Configs) map[sessionEnds][]netip.Prefix {
	denies := make(map[sessionEnds][]netip.Prefix)
	for _, name := range names {
		r, _ := net.RouterByName(name)
		if r == nil {
			continue
		}
		for _, nb := range cfgs[name].Neighbors {
			if len(nb.ExportDeny) == 0 {
				continue
			}
			if nb.RemoteAS == r.AS {
				if peer, ok := net.RouterByLoopback(nb.Addr); ok {
					denies[sessionEnds{r.ID, peer.ID}] = nb.ExportDeny
				}
			} else if d, ok := net.DirLinkToAddr(nb.Addr); ok {
				denies[sessionEnds{r.ID, net.Edge(d).To}] = nb.ExportDeny
			}
		}
	}
	return denies
}

// clock charges the time since start to the run's BGP wall time.
func (st *Stepper) clock(start time.Time) { st.b.stats.BGPTime += time.Since(start) }

// advertises reports whether router r builds advertisement templates from
// its own RIB (border stubs have theirs injected).
func (st *Stepper) advertises(r topo.RouterID) bool { return st.member == nil || st.member[r] }

// prefix returns pfx's id, growing every router's per-prefix state when
// the prefix is new.
func (st *Stepper) prefix(pfx netip.Prefix) int32 {
	id, ok := st.prefixID[pfx]
	if !ok {
		id = int32(len(st.prefixes))
		st.prefixes = append(st.prefixes, pfx)
		st.prefixID[pfx] = id
		for r := range st.routers {
			rs := &st.routers[r]
			rs.seed, rs.rib, rs.tpl = append(rs.seed, nil), append(rs.rib, nil), append(rs.tpl, nil)
			rs.stale, rs.wake = append(rs.stale, false), append(rs.wake, false)
		}
	}
	return id
}

// seedLocal installs a router's originated networks and redistributed
// statics as local candidates.
func (st *Stepper) seedLocal(r *topo.Router, rc *config.Router) {
	fv, net := st.fv, st.fv.Net
	up := fv.RouterUp(r.ID)
	seed := func(c BGPCand) {
		p := st.prefix(c.Prefix)
		c.NextHop, c.NextHopRouter, c.LocalPref = r.Loopback, r.ID, config.DefaultLocalPref
		rs := &st.routers[r.ID]
		rs.seed[p] = append(rs.seed[p], st.newCand(c))
	}
	for _, pfx := range rc.Networks {
		if st.only != nil && !st.only(pfx) {
			continue
		}
		seed(BGPCand{Prefix: pfx, Deliver: true, Guard: up})
	}
	if rc.RedistributeStatic {
		for _, static := range rc.Statics {
			if st.only != nil && !st.only(static.Prefix) {
				continue
			}
			c := BGPCand{Prefix: static.Prefix, Discard: static.Discard, AdvertiseOnly: true, Guard: up}
			if !static.Discard {
				// Present only while the static's own next hop resolves.
				if d, ok := net.DirLinkToAddr(static.NextHop); ok {
					c.Guard = fv.M.And(up, fv.EdgeUp(net.Edge(d)))
				}
			}
			seed(c)
		}
	}
}

// refreshTemplates brings every advertising router's templates up to date
// with its RIB and wakes the entries that read a template that moved.
func (st *Stepper) refreshTemplates() {
	for r := range st.routers {
		rs := &st.routers[r]
		for p, stale := range rs.stale {
			if !stale {
				continue
			}
			rs.stale[p] = false
			st.b.stats.TemplatesRebuilt++
			st.publish(topo.RouterID(r), int32(p), st.buildTemplates(rs.rib[p]))
		}
	}
}

// publish replaces router r's templates for prefix p and wakes the
// receivers whose view of them changed. An iBGP receiver sees only the
// groups that may cross iBGP — iBGP-learned groups are never
// re-advertised over it — so it sleeps through changes among the others.
func (st *Stepper) publish(r topo.RouterID, p int32, tpl []advTemplate) {
	rs := &st.routers[r]
	old := rs.tpl[p]
	rs.tpl[p] = tpl
	if slices.Equal(old, tpl) {
		return
	}
	wakeIBGP := !slices.Equal(overIBGP(old), overIBGP(tpl))
	for _, si := range st.out[r] {
		if s := &st.sessions[si]; s.ebgp || wakeIBGP {
			st.routers[s.to].wake[p] = true
		}
	}
}

// overIBGP returns the templates an iBGP receiver reads.
func overIBGP(tpl []advTemplate) []advTemplate {
	for i := range tpl {
		if !tpl[i].crossesIBGP {
			kept := slices.Clone(tpl[:i])
			for _, t := range tpl[i+1:] {
				if t.crossesIBGP {
					kept = append(kept, t)
				}
			}
			return kept
		}
	}
	return tpl
}

// Round runs one synchronous advertisement round and reports whether the
// RIBs were already stable (monolithic: all routers; domain: members
// only — global stability is the conjunction of the per-domain answers,
// since members partition the network).
func (st *Stepper) Round() bool {
	defer st.clock(time.Now())
	st.refreshTemplates()
	st.changed = st.changed[:0]
	stable := true
	for r := range st.routers {
		rs := &st.routers[r]
		for p, wake := range rs.wake {
			if !wake {
				continue
			}
			rs.wake[p] = false
			st.b.stats.BGPRecomputed++
			if !st.recompute(topo.RouterID(r), int32(p)) {
				continue
			}
			if st.advertises(topo.RouterID(r)) {
				rs.stale[p] = true
				stable = false
				if len(st.changed) < maxChanging {
					st.changed = append(st.changed, entryRef{topo.RouterID(r), int32(p)})
				}
			}
		}
	}
	return stable
}

// recompute evaluates RIB entry (r, p) from r's seeds and its peers'
// current templates, offered in global session order, and reports whether
// the entry moved.
func (st *Stepper) recompute(r topo.RouterID, p int32) bool {
	rs := &st.routers[r]
	pfx := st.prefixes[p]
	st.offerSeeds(rs.seed[p])
	for _, si := range st.in[r] {
		s := &st.sessions[si]
		tpls := st.routers[s.from].tpl[p]
		if len(tpls) == 0 || denied(s.exportDeny, pfx) {
			continue
		}
		for i := range tpls {
			st.advertise(si, int32(i), &tpls[i])
		}
	}
	kept := st.selectOffers(r, p)
	old := rs.rib[p]
	same := len(old) == len(kept)
	for i := 0; same && i < len(kept); i++ {
		c := &st.scratch[kept[i]]
		same = old[i].Guard == c.Guard && old[i].sameRoute(c)
	}
	if same {
		return false
	}
	rs.rib[p] = st.commit(kept)
	return true
}

// Finish seals the run, recording the round count and convergence verdict
// the driver observed, and returns the BGP state.
func (st *Stepper) Finish(rounds int, converged bool) *BGP {
	defer st.clock(time.Now())
	b := st.b
	b.RIBs = make([]BGPRIB, len(st.routers))
	b.stats.BGPEntries = 0
	for r := range st.routers {
		rib := make(BGPRIB)
		for p, cands := range st.routers[r].rib {
			if len(cands) > 0 {
				rib[st.prefixes[p]] = cands
			}
		}
		b.RIBs[r] = rib
		b.stats.BGPEntries += len(rib)
	}
	b.Rounds, b.Converged = rounds, converged
	b.stats.BGPRounds = rounds
	b.stats.ASPaths = len(st.paths.paths) - 1
	b.changing = nil
	if !converged {
		for _, e := range st.changed {
			b.changing = append(b.changing, fmt.Sprintf("%s %s", st.fv.Net.Router(e.r).Name, st.prefixes[e.p]))
		}
	}
	return b
}

// BorderAdv is one rank group of a border router's advertisement template
// as seen across an AS boundary. Because domains are AS-closed, every
// cross-domain session is eBGP, and an eBGP advertisement derives from
// exactly two template fields: the representative's AS path and the
// group's selection guard — local pref, next hop, out-edge and IGP cost
// are all reset by the receiver. This pair IS the interface summary unit
// exchanged between domains.
type BorderAdv struct {
	ASPath []uint32
	Sel    *mtbdd.Node
}

// BorderTemplates is a border router's advertisement templates: rank
// groups per prefix, preference-ordered.
type BorderTemplates map[netip.Prefix][]BorderAdv

// BorderAdvs exports router r's advertisement templates for the upcoming
// round. The selection guards are nodes of this stepper's manager; the
// coordinator transfers them across managers (mtbdd.Snapshot) before
// injecting them into a neighboring domain.
func (st *Stepper) BorderAdvs(r topo.RouterID) BorderTemplates {
	defer st.clock(time.Now())
	st.refreshTemplates()
	var out BorderTemplates
	for p, ts := range st.routers[r].tpl {
		if len(ts) == 0 {
			continue
		}
		advs := make([]BorderAdv, len(ts))
		for i, t := range ts {
			advs[i] = BorderAdv{ASPath: st.paths.paths[t.path], Sel: t.groupSel}
		}
		if out == nil {
			out = make(BorderTemplates)
		}
		out[st.prefixes[p]] = advs
	}
	return out
}

// SetStubAdvs injects the advertisement templates of border stub r for
// the upcoming round, replacing last round's injection (nil clears). The
// selection guards must already live in this stepper's manager. Only the
// receivers of a prefix whose templates really changed are woken.
func (st *Stepper) SetStubAdvs(r topo.RouterID, advs BorderTemplates) {
	defer st.clock(time.Now())
	// New prefixes get their ids in a fixed order, not the map's.
	var fresh []netip.Prefix
	for pfx := range advs {
		if _, ok := st.prefixID[pfx]; !ok {
			fresh = append(fresh, pfx)
		}
	}
	slices.SortFunc(fresh, func(a, b netip.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return a.Bits() - b.Bits()
	})
	for _, pfx := range fresh {
		st.prefix(pfx)
	}
	for p, pfx := range st.prefixes {
		injected := advs[pfx]
		if len(injected) == 0 && len(st.routers[r].tpl[p]) == 0 {
			continue
		}
		// A stub's groups carry what crosses an AS boundary: path and guard.
		tpl := make([]advTemplate, len(injected))
		for i, a := range injected {
			tpl[i] = advTemplate{groupSel: a.Sel, path: st.paths.intern(a.ASPath)}
		}
		st.publish(r, int32(p), tpl)
	}
}

// advTemplate is one rank group's advertisement content — what a
// receiver reads of the group's representative candidate — and the
// disjunction of the group's selection guards.
type advTemplate struct {
	groupSel  *mtbdd.Node
	path      int32 // the representative's AS path, an id in Stepper.paths
	localPref uint32
	// crossesIBGP: the group is advertised over iBGP sessions too;
	// iBGP-learned routes are not (full-mesh rule).
	crossesIBGP bool
}

// buildTemplates computes the advertisement templates of one RIB entry.
func (st *Stepper) buildTemplates(cands []*BGPCand) []advTemplate {
	fv := st.fv
	m := fv.M
	sel := selectionGuards(fv, cands)
	var ts []advTemplate
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
			ts = append(ts, advTemplate{
				groupSel: fv.Reduce(groupSel), path: cand.path, localPref: cand.LocalPref,
				crossesIBGP: cand.FromEBGP || cand.local(),
			})
		}
	}
	return ts
}

// offer is one route a RIB entry's evaluation may install: one of the
// router's seeds, or a template a session peer advertises, with its rank
// key read off before any candidate or guard is built. It names its source
// by index, so the offers sort as plain values.
type offer struct {
	rank rankKey
	sess int32 // index in Stepper.sessions; -1 for a seed
	i    int32 // index in the sender's templates for the prefix, or in the router's seeds
}

// offerSeeds starts an entry's offers with the router's seeds.
func (st *Stepper) offerSeeds(seeds []*BGPCand) {
	st.offers = st.offers[:0]
	for i, c := range seeds {
		st.offers = append(st.offers, offer{rank: c.rank(), sess: -1, i: int32(i)})
	}
}

// advertise offers template i of session si's sender to its receiver,
// unless the receiver rejects it: an eBGP path that holds the receiver's
// AS already (loop rejection), or an iBGP-learned group over iBGP.
func (st *Stepper) advertise(si, i int32, tpl *advTemplate) {
	s := &st.sessions[si]
	path := st.paths.paths[tpl.path]
	o := offer{sess: si, i: i}
	if s.ebgp {
		if hasAS(path, st.fv.Net.Router(s.to).AS) {
			return
		}
		// The sender prepends its AS.
		o.rank = rankKey{localPref: s.importPref, pathLen: int32(len(path)) + 1, ebgp: true}
	} else {
		if !tpl.crossesIBGP {
			return
		}
		o.rank = rankKey{localPref: tpl.localPref, pathLen: int32(len(path)), igpCost: s.igpCost}
	}
	st.offers = append(st.offers, o)
}

// candidate builds the candidate of an offer to entry (r, p); ok is false
// for an advertisement whose guard is Zero.
func (st *Stepper) candidate(r topo.RouterID, p int32, o offer) (c BGPCand, ok bool) {
	if o.sess < 0 {
		return *st.routers[r].seed[p][o.i], true
	}
	s := &st.sessions[o.sess]
	tpl := &st.routers[s.from].tpl[p][o.i]
	net := st.fv.Net
	c = BGPCand{Prefix: st.prefixes[p], LocalPref: o.rank.localPref, IGPCost: o.rank.igpCost, FromEBGP: s.ebgp}
	if s.ebgp {
		// AS-path prepend. s.edge runs receiver -> sender, so the sender's
		// interface address is the remote end, and the receiver forwards
		// out of s.edge itself.
		c.path = st.paths.prepend(net.Router(s.from).AS, tpl.path)
		c.NextHop = s.edge.RemoteAddr
		c.Direct = true
		c.OutEdge = s.edge.DirLink
	} else {
		// iBGP: next-hop-self, attributes carried unchanged; the receiver
		// tiebreaks by its static IGP cost to the next hop (hot potato).
		c.path = tpl.path
		c.NextHop = net.Router(s.from).Loopback
		c.NextHopRouter = s.from
	}
	c.Guard = st.fv.ReduceAnd(tpl.groupSel, s.up)
	if c.Guard == st.fv.M.Zero() {
		return c, false
	}
	c.ASPath = st.paths.paths[c.path]
	return c, true
}

// selectOffers evaluates entry (r, p) from its offers: it sorts them by
// rank, arrival order kept among ties, and walks the rank groups in that
// order. A group's offers are built and merged into the scratch entry, and
// its candidates that can be selected within the failure budget are kept.
// The walk stops at the first group the strictly better kept candidates
// cover, where better is One: better is KREDUCEd, so it is One exactly when
// it holds in every scenario of at most K failures (with reduction
// disabled, only when it holds in every scenario). ¬better is then Zero,
// selectable is false for every offer left, and none is built (DESIGN.md
// §19). It returns the kept candidates as indices into scratch, in RIB
// order.
func (st *Stepper) selectOffers(r topo.RouterID, p int32) []int32 {
	m := st.fv.M
	offers := st.offers
	slices.SortStableFunc(offers, func(a, b offer) int { return a.rank.compare(b.rank) })
	st.scratch, st.kept = st.scratch[:0], st.kept[:0]
	done := 0 // offers walked
	for better := m.Zero(); better != m.One() && done < len(offers); {
		from, rank := len(st.scratch), offers[done].rank
		for ; done < len(offers) && offers[done].rank == rank; done++ {
			st.build(r, p, offers[done], from)
		}
		better = st.keep(from, better)
	}
	st.b.stats.BGPOffers += len(offers)
	st.b.stats.BGPOffersCut += len(offers) - done
	return st.kept
}

// build adds offer o's candidate to the scratch entry; a candidate of the
// running group (scratch[from:]) that is the same route up to its guard
// absorbs o's guard instead. The same route has the same rank, so no other
// group can hold it.
func (st *Stepper) build(r topo.RouterID, p int32, o offer, from int) {
	c, ok := st.candidate(r, p, o)
	if !ok {
		return
	}
	for i := from; i < len(st.scratch); i++ {
		if prev := &st.scratch[i]; prev.sameRoute(&c) {
			prev.Guard = st.fv.ReduceOr(prev.Guard, c.Guard)
			return
		}
	}
	st.scratch = append(st.scratch, c)
}

// keep keeps the running group's candidates (scratch[from:]) that can be
// selected when every strictly better kept candidate, whose disjunction is
// better, is absent, and returns better extended by them.
func (st *Stepper) keep(from int, better *mtbdd.Node) *mtbdd.Node {
	fv := st.fv
	group := better
	for x := from; x < len(st.scratch); x++ {
		if c := &st.scratch[x]; c.Guard != fv.M.Zero() && fv.selectable(c.Guard, better) {
			st.kept = append(st.kept, int32(x))
			group = fv.ReduceOr(group, c.Guard)
		}
	}
	return group
}

// commit copies the kept scratch candidates into a RIB entry.
func (st *Stepper) commit(kept []int32) []*BGPCand {
	if len(kept) == 0 {
		return nil
	}
	if len(st.lists)+len(kept) > cap(st.lists) {
		st.lists = make([]*BGPCand, 0, max(1024, len(kept)))
	}
	from := len(st.lists)
	for _, i := range kept {
		st.lists = append(st.lists, st.newCand(st.scratch[i]))
	}
	return st.lists[from:len(st.lists):len(st.lists)]
}

// newCand allocates a candidate from the slab.
func (st *Stepper) newCand(c BGPCand) *BGPCand {
	if len(st.cands) == cap(st.cands) {
		st.cands = make([]BGPCand, 0, 256)
	}
	st.cands = append(st.cands, c)
	return &st.cands[len(st.cands)-1]
}

// lessASPath orders AS paths lexicographically (used to pick the
// deterministic representative of an ECMP group).
func lessASPath(a, b []uint32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// selectionGuards computes s_r for every candidate (paper §4.4): present
// and every strictly more preferred candidate absent.
func selectionGuards(fv *FailVars, cands []*BGPCand) []*mtbdd.Node {
	m := fv.M
	out := make([]*mtbdd.Node, len(cands))
	// cands are sorted most-preferred-first by normalize; compute the
	// running disjunction of strictly better guards per rank group.
	better := m.Zero()
	i := 0
	for i < len(cands) {
		j := i
		group := better
		for j < len(cands) && cands[j].SameRank(cands[i]) {
			out[j] = fv.ReduceAnd(cands[j].Guard, m.Not(better))
			group = fv.ReduceOr(group, cands[j].Guard)
			j++
		}
		better = group
		i = j
	}
	return out
}

func hasAS(path []uint32, as uint32) bool {
	for _, a := range path {
		if a == as {
			return true
		}
	}
	return false
}

func denied(deny []netip.Prefix, pfx netip.Prefix) bool {
	for _, d := range deny {
		if d == pfx {
			return true
		}
	}
	return false
}
