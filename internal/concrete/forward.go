package concrete

import (
	"net/netip"
	"sort"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// ScenarioResult holds the concrete traffic of all flows under one
// scenario.
type ScenarioResult struct {
	// Load is the traffic in Gbps per directed link.
	Load map[topo.DirLinkID]float64
	// Delivered is the traffic delivered per flow index.
	Delivered []float64
	// Dropped is the traffic dropped per flow index.
	Dropped []float64
}

// FlowTrace is one flow's concrete result under one scenario: its own
// per-link loads plus the set of routers its traffic visited. The
// trajectory (links with nonzero load + visited routers) is what the
// incremental enumerator checks against failed elements.
type FlowTrace struct {
	Load      map[topo.DirLinkID]float64
	Delivered float64
	Dropped   float64
	Routers   map[topo.RouterID]bool
}

// routesFor bundles the per-scenario routing state.
type routesFor struct {
	sc  *Scenario
	igp *igpState
	bgp *bgpState
}

// ComputeRoutes computes concrete IGP and BGP routing for one scenario.
func (s *Sim) ComputeRoutes(sc *Scenario) *routesFor {
	igp := s.computeIGP(sc)
	return &routesFor{sc: sc, igp: igp, bgp: s.computeBGP(sc, igp)}
}

// Simulate computes the concrete traffic loads of all flows under one
// scenario (recomputing routes).
func (s *Sim) Simulate(sc *Scenario, flows []topo.Flow) *ScenarioResult {
	return s.SimulateWithRoutes(s.ComputeRoutes(sc), flows)
}

// fwdRule is one concrete forwarding action with its share weight.
type fwdRule struct {
	deliver bool
	discard bool
	direct  bool
	out     topo.DirLinkID
	via     topo.RouterID
	viaAddr netip.Addr
}

// lookup returns the concrete ECMP set for dst at router r: the
// most-preferred present rules under LPM, statics before BGP.
func (s *Sim) lookup(rt *routesFor, r topo.RouterID, dst netip.Addr) []fwdRule {
	// Collect matching prefixes, longest first.
	pfxSet := make(map[netip.Prefix]bool)
	for _, st := range s.statics[r] {
		if st.Prefix.Contains(dst) {
			pfxSet[st.Prefix] = true
		}
	}
	for pfx := range rt.bgp.ribs[r] {
		if pfx.Contains(dst) {
			pfxSet[pfx] = true
		}
	}
	var pfxs []netip.Prefix
	for pfx := range pfxSet {
		pfxs = append(pfxs, pfx)
	}
	sort.Slice(pfxs, func(i, j int) bool {
		if pfxs[i].Bits() != pfxs[j].Bits() {
			return pfxs[i].Bits() > pfxs[j].Bits()
		}
		return pfxs[i].Addr().Less(pfxs[j].Addr())
	})
	for _, pfx := range pfxs {
		// Statics first (admin distance).
		var rules []fwdRule
		for _, st := range s.statics[r] {
			if st.Prefix != pfx {
				continue
			}
			if st.Discard {
				rules = append(rules, fwdRule{discard: true})
				continue
			}
			if d, ok := s.net.DirLinkToAddr(st.NextHop); ok {
				e := s.net.Edge(d)
				if rt.sc.EdgeUp(e) && e.From == r {
					rules = append(rules, fwdRule{direct: true, out: d})
				}
				continue
			}
			if owner, ok := s.net.RouterByLoopback(st.NextHop); ok {
				rules = append(rules, fwdRule{via: owner.ID, viaAddr: st.NextHop})
			}
		}
		if len(rules) > 0 {
			return rules
		}
		// BGP best group.
		var avail []*route
		for _, c := range rt.bgp.ribs[r][pfx] {
			if c.advOnly {
				continue
			}
			avail = append(avail, c)
		}
		for _, c := range bestGroup(avail) {
			fr := fwdRule{deliver: c.deliver, discard: c.discard}
			if !c.deliver && !c.discard {
				if c.direct {
					fr.direct = true
					fr.out = c.outEdge
				} else {
					fr.via = c.nhRouter
					fr.viaAddr = c.nextHop
				}
			}
			rules = append(rules, fr)
		}
		if len(rules) > 0 {
			return rules
		}
	}
	return nil
}

// SimulateWithRoutes simulates flow forwarding given precomputed routes.
func (s *Sim) SimulateWithRoutes(rt *routesFor, flows []topo.Flow) *ScenarioResult {
	res := &ScenarioResult{
		Load:      make(map[topo.DirLinkID]float64),
		Delivered: make([]float64, len(flows)),
		Dropped:   make([]float64, len(flows)),
	}
	for fi, f := range flows {
		tr := s.SimulateFlow(rt, f)
		res.Delivered[fi] = tr.Delivered
		res.Dropped[fi] = tr.Dropped
		for l, v := range tr.Load {
			res.Load[l] += v
		}
	}
	return res
}

type cell struct {
	router topo.RouterID
	stack  string
}

// SimulateFlow propagates one flow's traffic wavefront under precomputed
// routes and returns its trace.
func (s *Sim) SimulateFlow(rt *routesFor, f topo.Flow) *FlowTrace {
	tr := &FlowTrace{
		Load:    make(map[topo.DirLinkID]float64),
		Routers: make(map[topo.RouterID]bool),
	}
	tr.Routers[f.Ingress] = true
	if rt.sc.RouterDown[f.Ingress] {
		tr.Dropped += f.Gbps
		return tr
	}
	stacks := map[string][]topo.RouterID{"": nil}
	front := map[cell]float64{{f.Ingress, ""}: f.Gbps}
	for hop := 0; hop < s.maxHops && len(front) > 0; hop++ {
		next := make(map[cell]float64)
		for c, vol := range front {
			tr.Routers[c.router] = true
			s.forwardCell(rt, f, c.router, stacks[c.stack], vol, tr, next, stacks, 0)
		}
		front = next
	}
	// Any remainder is circulating (loop); count it dropped for
	// conservation.
	for _, vol := range front {
		tr.Dropped += vol
	}
	return tr
}

func stackKeyOf(segs []topo.RouterID) string {
	b := make([]byte, 0, len(segs)*3)
	for _, r := range segs {
		v := uint32(r)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(b)
}

// forwardCell forwards vol Gbps of flow f arriving at router r with the
// given label stack.
func (s *Sim) forwardCell(rt *routesFor, f topo.Flow, r topo.RouterID, segs []topo.RouterID,
	vol float64, tr *FlowTrace, next map[cell]float64, stacks map[string][]topo.RouterID, depth int) {

	// Pop leading self-segments.
	for len(segs) > 0 && segs[0] == r {
		segs = segs[1:]
	}
	if len(segs) > 0 {
		// Steer toward the first segment over the IGP.
		s.igpForward(rt, r, segs[0], segs, vol, tr, next, stacks)
		return
	}
	// Plain IP forwarding.
	rules := s.lookup(rt, r, f.Dst)
	if len(rules) == 0 {
		tr.Dropped += vol
		return
	}
	share := vol / float64(len(rules))
	for _, ru := range rules {
		switch {
		case ru.deliver:
			tr.Delivered += share
		case ru.discard:
			tr.Dropped += share
		case ru.direct:
			s.emit(ru.out, nil, share, tr, next, stacks)
		default:
			// Indirect: SR policy match, then IGP.
			if pol := s.matchSR(r, ru.viaAddr, f.DSCP); pol != nil && depth < 4 {
				s.srForward(rt, r, pol, share, f, tr, next, stacks, depth)
			} else {
				s.igpForward(rt, r, ru.via, nil, share, tr, next, stacks)
			}
		}
	}
}

func (s *Sim) matchSR(r topo.RouterID, nip netip.Addr, dscp uint8) *config.SRPolicy {
	for i := range s.srPolicies[r] {
		if s.srPolicies[r][i].Matches(nip, dscp) {
			return &s.srPolicies[r][i]
		}
	}
	return nil
}

// srForward splits traffic over the valid weighted SR paths; traffic is
// dropped if no path is valid (strict steering, matching internal/core).
func (s *Sim) srForward(rt *routesFor, r topo.RouterID, pol *config.SRPolicy, vol float64,
	f topo.Flow, tr *FlowTrace, next map[cell]float64, stacks map[string][]topo.RouterID, depth int) {

	type validPath struct {
		segs   []topo.RouterID
		weight int64
	}
	var valid []validPath
	var totalW int64
	for _, p := range pol.Paths {
		segs := make([]topo.RouterID, 0, len(p.Segments))
		ok := true
		prev := r
		for _, addr := range p.Segments {
			owner, found := s.net.RouterByLoopback(addr)
			if !found {
				ok = false
				break
			}
			if prev != owner.ID && !rt.igp.reach(prev, owner.ID) {
				ok = false
				break
			}
			segs = append(segs, owner.ID)
			prev = owner.ID
		}
		if ok {
			valid = append(valid, validPath{segs, p.Weight})
			totalW += p.Weight
		}
	}
	if totalW == 0 {
		tr.Dropped += vol
		return
	}
	for _, p := range valid {
		share := vol * float64(p.weight) / float64(totalW)
		// Forward with the path's full stack from this router.
		s.forwardCellWithStack(rt, r, p.segs, share, f, tr, next, stacks, depth+1)
	}
}

// forwardCellWithStack handles a freshly attached stack at r (popping any
// leading self segments and steering).
func (s *Sim) forwardCellWithStack(rt *routesFor, r topo.RouterID, segs []topo.RouterID, vol float64,
	f topo.Flow, tr *FlowTrace, next map[cell]float64, stacks map[string][]topo.RouterID, depth int) {

	for len(segs) > 0 && segs[0] == r {
		segs = segs[1:]
	}
	if len(segs) == 0 {
		s.forwardCell(rt, f, r, nil, vol, tr, next, stacks, depth)
		return
	}
	s.igpForward(rt, r, segs[0], segs, vol, tr, next, stacks)
}

// igpForward ECMP-splits vol over the shortest paths toward dest,
// emitting with the given (possibly empty) label stack.
func (s *Sim) igpForward(rt *routesFor, r, dest topo.RouterID, segs []topo.RouterID, vol float64,
	tr *FlowTrace, next map[cell]float64, stacks map[string][]topo.RouterID) {

	nhs := rt.igp.nh[r][dest]
	if len(nhs) == 0 {
		tr.Dropped += vol
		return
	}
	share := vol / float64(len(nhs))
	for _, d := range nhs {
		s.emit(d, segs, share, tr, next, stacks)
	}
}

func (s *Sim) emit(d topo.DirLinkID, segs []topo.RouterID, vol float64,
	tr *FlowTrace, next map[cell]float64, stacks map[string][]topo.RouterID) {

	tr.Load[d] += vol
	to := s.net.Edge(d).To
	key := stackKeyOf(segs)
	if _, ok := stacks[key]; !ok {
		stacks[key] = append([]topo.RouterID(nil), segs...)
	}
	next[cell{to, key}] += vol
}
