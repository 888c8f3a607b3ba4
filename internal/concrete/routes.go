// Package concrete implements a concrete (per-scenario) network simulator
// in the style of Jingubang [39]: given one failure scenario it computes
// concrete IGP and BGP routes and simulates every flow's forwarding with
// exact traffic fractions. k-failure verification then enumerates all
// C(n, ≤k) scenarios — the approach whose cost YU's symbolic execution
// avoids (paper §2.1, Figures 11 and 17).
//
// The package is written independently of internal/routesim and
// internal/core so it can serve as a differential-testing oracle: for any
// scenario within the failure budget, YU's symbolic traffic loads
// evaluated at the scenario must equal this simulator's loads.
package concrete

import (
	"container/heap"
	"net/netip"
	"sort"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// Scenario is one concrete failure scenario.
type Scenario struct {
	LinkDown   []bool // indexed by LinkID
	RouterDown []bool // indexed by RouterID
}

// NewScenario returns an all-alive scenario for the network.
func NewScenario(net *topo.Network) *Scenario {
	return &Scenario{
		LinkDown:   make([]bool, net.NumLinks()),
		RouterDown: make([]bool, net.NumRouters()),
	}
}

// Clone returns a deep copy.
func (s *Scenario) Clone() *Scenario {
	c := &Scenario{
		LinkDown:   append([]bool(nil), s.LinkDown...),
		RouterDown: append([]bool(nil), s.RouterDown...),
	}
	return c
}

// EdgeUp reports whether a directed edge is usable.
func (s *Scenario) EdgeUp(e topo.DirEdge) bool {
	return !s.LinkDown[e.DirLink.Link()] && !s.RouterDown[e.From] && !s.RouterDown[e.To]
}

// Sim simulates one network + configuration under chosen scenarios.
type Sim struct {
	net  *topo.Network
	cfgs config.Configs

	// static per-router config lookups
	networks   [][]netip.Prefix
	statics    [][]config.StaticRoute
	redistrib  []bool
	srPolicies [][]config.SRPolicy
	neighbors  [][]config.BGPNeighbor

	// maxHops caps SimulateFlow's wavefront at the symbolic engine's
	// iteration bound (topo.Network.HopBound).
	maxHops int

	// base is the lazily computed no-failure IGP state, used for the
	// static hot-potato tiebreak (mirrors routesim.IGP.NoFailCost).
	base *igpState
}

// baseDist returns the no-failure IGP cost from r to dest, -1 if
// unreachable.
func (s *Sim) baseDist(r, dest topo.RouterID) int64 {
	if s.base == nil {
		s.base = s.computeIGP(NewScenario(s.net))
	}
	return s.base.dist[r][dest]
}

// NewSim prepares a simulator.
func NewSim(net *topo.Network, cfgs config.Configs) *Sim {
	s := &Sim{
		net:        net,
		cfgs:       cfgs,
		networks:   make([][]netip.Prefix, net.NumRouters()),
		statics:    make([][]config.StaticRoute, net.NumRouters()),
		redistrib:  make([]bool, net.NumRouters()),
		srPolicies: make([][]config.SRPolicy, net.NumRouters()),
		neighbors:  make([][]config.BGPNeighbor, net.NumRouters()),
		maxHops:    net.HopBound(cfgs.LongestSRPath()),
	}
	for name, rc := range cfgs {
		r, ok := net.RouterByName(name)
		if !ok {
			continue
		}
		s.networks[r.ID] = rc.Networks
		s.statics[r.ID] = rc.Statics
		s.redistrib[r.ID] = rc.RedistributeStatic
		s.srPolicies[r.ID] = rc.SRPolicies
		s.neighbors[r.ID] = rc.Neighbors
	}
	return s
}

// Net returns the topology.
func (s *Sim) Net() *topo.Network { return s.net }

// igpState is the concrete IGP result for one scenario.
type igpState struct {
	// dist[r][dest] is the shortest-path cost, -1 if unreachable.
	dist [][]int64
	// nh[r][dest] is the ECMP set of outgoing directed links.
	nh [][][]topo.DirLinkID
}

func (g *igpState) reach(a, b topo.RouterID) bool { return g.dist[a][b] >= 0 }

type pqItem struct {
	r   topo.RouterID
	d   int64
	idx int
}

type pq []*pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i]; p[i].idx, p[j].idx = i, j }
func (p *pq) Push(x interface{}) { it := x.(*pqItem); it.idx = len(*p); *p = append(*p, it) }
func (p *pq) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// computeIGP runs Dijkstra toward every destination in every AS on the
// alive subgraph. (Run per destination on the reversed graph so the ECMP
// next-hop sets fall out directly.)
func (s *Sim) computeIGP(sc *Scenario) *igpState {
	n := s.net.NumRouters()
	g := &igpState{
		dist: make([][]int64, n),
		nh:   make([][][]topo.DirLinkID, n),
	}
	for i := 0; i < n; i++ {
		g.dist[i] = make([]int64, n)
		for j := range g.dist[i] {
			g.dist[i][j] = -1
		}
		g.nh[i] = make([][]topo.DirLinkID, n)
	}
	for _, as := range s.net.ASes() {
		members := s.net.RoutersInAS(as)
		inAS := make(map[topo.RouterID]bool, len(members))
		for _, r := range members {
			inAS[r] = true
		}
		for _, dest := range members {
			if sc.RouterDown[dest] {
				continue
			}
			// Dijkstra from dest over reversed alive edges within AS.
			dist := make(map[topo.RouterID]int64, len(members))
			dist[dest] = 0
			h := &pq{}
			heap.Push(h, &pqItem{r: dest, d: 0})
			done := make(map[topo.RouterID]bool, len(members))
			for h.Len() > 0 {
				it := heap.Pop(h).(*pqItem)
				if done[it.r] {
					continue
				}
				done[it.r] = true
				// Relax reversed edges: for edge u->it.r, candidate
				// dist[u] = dist[it.r] + cost(u->it.r).
				for _, e := range s.net.In(it.r) {
					if !inAS[e.From] || !sc.EdgeUp(e) {
						continue
					}
					nd := it.d + e.Cost
					if cur, ok := dist[e.From]; !ok || nd < cur {
						dist[e.From] = nd
						heap.Push(h, &pqItem{r: e.From, d: nd})
					}
				}
			}
			for r, d := range dist {
				g.dist[r][dest] = d
			}
			// ECMP next hops: edges on some shortest path.
			for _, r := range members {
				if r == dest || g.dist[r][dest] < 0 {
					continue
				}
				var nhs []topo.DirLinkID
				for _, e := range s.net.Out(r) {
					if !inAS[e.To] || !sc.EdgeUp(e) {
						continue
					}
					td := g.dist[e.To][dest]
					if e.To == dest {
						td = 0
					}
					if td >= 0 && e.Cost+td == g.dist[r][dest] {
						nhs = append(nhs, e.DirLink)
					}
				}
				sort.Slice(nhs, func(i, j int) bool { return nhs[i] < nhs[j] })
				g.nh[r][dest] = nhs
			}
		}
	}
	return g
}
