package routesim

import (
	"sort"
	"time"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// IGPRoute is one guarded IGP (IS-IS) candidate at some router for a
// destination router's loopback: traffic takes the directed link Out, the
// total path cost is Cost, and the route is present exactly when Guard
// holds. A guarded IS-IS RIB is the cost-sorted list of candidates; under
// failures, less preferred (higher-cost) candidates become selected when
// all cheaper ones are absent (paper §4.4, route selection encoding).
type IGPRoute struct {
	Out   topo.DirLinkID
	Cost  int64
	Guard *mtbdd.Node
}

// IGP holds the symbolic IS-IS state of every router: guarded RIBs toward
// every same-AS loopback, and the reachability guards reach_{A,B} used for
// iBGP session liveness and SR path guards (paper §4.1, Figure 4).
type IGP struct {
	fv     *FailVars
	routes []map[topo.RouterID][]IGPRoute
	reach  []map[topo.RouterID]*mtbdd.Node
	stats  Stats // the IGP fields
}

// Routes returns the guarded candidates at router r toward dest's
// loopback, sorted by increasing cost. Nil if dest is in another AS or
// unreachable.
func (g *IGP) Routes(r, dest topo.RouterID) []IGPRoute {
	return g.routes[r][dest]
}

// Reach returns the guard "router a can reach router b over the IGP"
// (reach_{a,b}). Zero guard if b is in another AS or disconnected.
func (g *IGP) Reach(a, b topo.RouterID) *mtbdd.Node {
	if r, ok := g.reach[a][b]; ok {
		return r
	}
	return g.fv.M.Zero()
}

// NoFailCost returns r's IGP cost to dest in the no-failure scenario, or
// ok=false if dest is not IGP-reachable with everything alive. It is the
// static metric behind the BGP decision process's hot-potato tiebreak
// (preference is static in a guarded RIB; guards only gate presence).
func (g *IGP) NoFailCost(r, dest topo.RouterID) (int64, bool) {
	if r == dest {
		return 0, true
	}
	for _, rt := range g.routes[r][dest] {
		// Candidates are cost-sorted; the first whose guard holds with
		// everything alive is the no-failure best.
		if g.fv.M.EvalAllAlive(rt.Guard) != 0 {
			return rt.Cost, true
		}
	}
	return 0, false
}

// GuardNodes returns every MTBDD node held by the IGP state (route guards
// and reachability guards) — the root set a managed garbage collection
// must preserve.
func (g *IGP) GuardNodes() []*mtbdd.Node {
	var out []*mtbdd.Node
	for r := range g.routes {
		for _, routes := range g.routes[r] {
			for _, rt := range routes {
				out = append(out, rt.Guard)
			}
		}
		for _, reach := range g.reach[r] {
			out = append(out, reach)
		}
	}
	return out
}

// ComputeIGP runs symbolic IS-IS route simulation in every AS. Per
// destination it solves the guarded shortest-path fixed point
//
//	level(r, c) = ∨_{e: r→n} up(e) ∧ level(n, c − w(e)),   level(dest, 0) = 1
//
// restricted to levels that can be selected — present while every cheaper
// level of the same router is absent — in some scenario within the k
// budget. IS-IS metrics are positive, so level(r, c) reads only levels
// of strictly lower cost and whether it is kept reads only r's own
// cheaper levels: settling (cost, router) pairs in cost order computes
// every level exactly once from final inputs (DESIGN.md §19). Levels
// that are never selectable (every walk that revisits a router is one)
// are dropped and never propagate.
func ComputeIGP(fv *FailVars) *IGP {
	start := time.Now()
	net := fv.Net
	g := newIGP(fv)
	sw := &spfSweep{g: g, index: make([]int32, net.NumRouters())}
	for _, as := range net.ASes() {
		sw.enterAS(net.RoutersInAS(as))
		for dest := range sw.members {
			sw.run(int32(dest))
		}
	}
	g.stats.IGPTime = time.Since(start)
	return g
}

func newIGP(fv *FailVars) *IGP {
	n := fv.Net.NumRouters()
	return &IGP{
		fv:     fv,
		routes: make([]map[topo.RouterID][]IGPRoute, n),
		reach:  make([]map[topo.RouterID]*mtbdd.Node, n),
	}
}

// spfEdge is one intra-AS adjacency of the AS being swept, with the other
// end as an index into spfSweep.members.
type spfEdge struct {
	peer int32
	cost int64
	// Out-edges only: the directed link and its usable-edge guard.
	out topo.DirLinkID
	up  *mtbdd.Node
}

// spfLevel is a kept path-existence level: a live path of exactly this
// cost exists when guard holds.
type spfLevel struct {
	cost  int64
	guard *mtbdd.Node
}

// spfSweep is the per-AS working state of ComputeIGP, reused across the
// AS's destinations.
type spfSweep struct {
	g       *IGP
	index   []int32 // RouterID -> index into members, -1 outside the AS
	members []topo.RouterID
	out     [][]spfEdge // per member, ascending directed-link ID
	in      [][]spfEdge

	// Per destination.
	levels   [][]spfLevel   // kept levels, ascending cost
	cover    []*mtbdd.Node  // disjunction of the kept levels
	routes   [][]IGPRoute   // kept first-hop candidates, ascending (cost, link)
	frontier []spfCandidate // min-heap on (cost, router)
}

// spfCandidate proposes that router r may have a level at cost.
type spfCandidate struct {
	cost int64
	r    int32
}

func (a spfCandidate) before(b spfCandidate) bool {
	return a.cost < b.cost || a.cost == b.cost && a.r < b.r
}

// enterAS indexes the AS's intra-AS adjacencies. The usable-edge guards
// depend on neither destination nor cost, so they are built here once.
func (s *spfSweep) enterAS(members []topo.RouterID) {
	fv, net := s.g.fv, s.g.fv.Net
	for i := range s.index {
		s.index[i] = -1
	}
	for i, r := range members {
		s.index[r] = int32(i)
	}
	n := len(members)
	s.members = members
	s.out, s.in = make([][]spfEdge, n), make([][]spfEdge, n)
	s.levels, s.cover, s.routes = make([][]spfLevel, n), make([]*mtbdd.Node, n), make([][]IGPRoute, n)
	for i, r := range members {
		s.g.routes[r] = make(map[topo.RouterID][]IGPRoute, n-1)
		s.g.reach[r] = make(map[topo.RouterID]*mtbdd.Node, n)
		for _, e := range net.Out(r) {
			if peer := s.index[e.To]; peer >= 0 {
				s.out[i] = append(s.out[i], spfEdge{peer: peer, cost: e.Cost, out: e.DirLink, up: fv.EdgeUp(e)})
			}
		}
		sort.Slice(s.out[i], func(a, b int) bool { return s.out[i][a].out < s.out[i][b].out })
		for _, e := range net.In(r) {
			if peer := s.index[e.From]; peer >= 0 {
				s.in[i] = append(s.in[i], spfEdge{peer: peer, cost: e.Cost})
			}
		}
	}
}

// run computes every member's guarded routes and reachability toward
// members[dest].
func (s *spfSweep) run(dest int32) {
	g, fv := s.g, s.g.fv
	m := fv.M
	for i := range s.levels {
		s.levels[i], s.routes[i], s.cover[i] = s.levels[i][:0], s.routes[i][:0], m.Zero()
	}
	s.levels[dest] = append(s.levels[dest], spfLevel{cost: 0, guard: m.One()})
	s.propose(dest, 0, dest)
	last := spfCandidate{r: -1}
	for len(s.frontier) > 0 {
		c := s.pop()
		if c == last {
			continue // several neighbours proposed the same level
		}
		last = c
		if s.settle(c) {
			s.propose(c.r, c.cost, dest)
		}
	}

	destID := s.members[dest]
	total := 0
	for i := range s.routes {
		total += len(s.routes[i])
	}
	slab := make([]IGPRoute, 0, total)
	for i, r := range s.members {
		if int32(i) == dest {
			g.reach[r][destID] = fv.RouterUp(destID)
			continue
		}
		if len(s.levels[i]) == 0 {
			continue
		}
		g.reach[r][destID] = s.cover[i]
		from := len(slab)
		slab = append(slab, s.routes[i]...)
		g.routes[r][destID] = slab[from:len(slab):len(slab)]
	}
}

// settle builds router c.r's level at c.cost from its neighbours' final
// cheaper levels, together with the first-hop candidates that make it up,
// and keeps what is selectable within the budget. It reports whether the
// level was kept.
func (s *spfSweep) settle(c spfCandidate) bool {
	fv := s.g.fv
	m := fv.M
	zero := m.Zero()
	if s.saturated(c.r) {
		return false
	}
	first := len(s.routes[c.r])
	level := zero
	for _, e := range s.out[c.r] {
		tail := levelAt(s.levels[e.peer], c.cost-e.cost)
		if tail == nil {
			continue
		}
		via := fv.ReduceAnd(e.up, tail)
		if via == zero {
			continue
		}
		s.routes[c.r] = append(s.routes[c.r], IGPRoute{Out: e.out, Cost: c.cost, Guard: via})
		if level == zero {
			level = via
		} else {
			level = fv.ReduceOr(level, via)
		}
	}
	if level == zero {
		return false
	}
	s.g.stats.IGPLevels++
	cheaper := s.cover[c.r]
	if !fv.selectable(level, cheaper) {
		// Covered by cheaper levels in every scenario of the budget, and
		// then so is each of its candidates.
		s.g.stats.IGPPruned++
		s.routes[c.r] = s.routes[c.r][:first]
		return false
	}
	if cands := s.routes[c.r][first:]; len(cands) > 1 {
		kept := s.routes[c.r][:first]
		for _, rt := range cands {
			if fv.selectable(rt.Guard, cheaper) {
				kept = append(kept, rt)
			}
		}
		s.routes[c.r] = kept
	}
	s.levels[c.r] = append(s.levels[c.r], spfLevel{cost: c.cost, guard: level})
	s.cover[c.r] = fv.ReduceOr(cheaper, level)
	return true
}

// levelAt returns the guard of the level at exactly cost, or nil.
func levelAt(levels []spfLevel, cost int64) *mtbdd.Node {
	for i := len(levels) - 1; i >= 0 && levels[i].cost >= cost; i-- {
		if levels[i].cost == cost {
			return levels[i].guard
		}
	}
	return nil
}

// propose pushes the levels that r's kept level at cost makes possible
// at its in-neighbours. The destination itself only ever has level 0.
func (s *spfSweep) propose(r int32, cost int64, dest int32) {
	for _, e := range s.in[r] {
		if e.peer != dest && !s.saturated(e.peer) {
			s.push(spfCandidate{cost: cost + e.cost, r: e.peer})
		}
	}
}

// saturated reports that r's kept levels already cover every scenario of
// the budget: the destination is reachable at one of those costs whatever
// fails, so no dearer level can ever be selected and none need be built.
func (s *spfSweep) saturated(r int32) bool { return s.cover[r] == s.g.fv.M.One() }

func (s *spfSweep) push(c spfCandidate) {
	h := append(s.frontier, c)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.frontier = h
}

func (s *spfSweep) pop() spfCandidate {
	h := s.frontier
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	s.frontier = h
	return top
}
