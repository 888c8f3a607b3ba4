package core

import (
	"encoding/binary"
	"net/netip"
	"slices"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// maxSRChain bounds recursive SR policy re-entry while building cached
// steps (a policy whose path pops back into IP lookup on the same router).
const maxSRChain = 4

// rule is one forwarding rule of the merged longest-prefix-match RIB view
// used by forwardIp: static routes and BGP candidates, ordered by
// preference for the s/c encodings of §4.4. It is comparable: two rules are
// equal when forwarding cannot tell them apart (the guard by node identity).
type rule struct {
	guard   *mtbdd.Node
	deliver bool
	discard bool
	direct  bool
	out     topo.DirLinkID
	// indirect resolution target (BGP next hop loopback or static via).
	viaRouter topo.RouterID
	// viaAddr is the literal next-hop address, used for SR policy
	// matching (policies match on the route's next hop, Figure 1).
	viaAddr netip.Addr
}

// prefixRules appends router r's preference-ordered rule groups for one
// exact prefix: statics (admin distance 1) before BGP; within BGP,
// decision-process rank groups whose members tie (ECMP). This is everything
// forwarding reads of the route-simulation result for (r, pfx).
func (e *Engine) prefixRules(groups [][]rule, r topo.RouterID, pfx netip.Prefix) [][]rule {
	// Statics for this exact prefix.
	var statics []rule
	for _, st := range e.rs.Statics[r] {
		if st.Prefix != pfx {
			continue
		}
		ru := rule{guard: st.Guard, discard: st.Discard}
		if !st.Discard {
			if st.Indirect {
				ru.viaRouter = st.ViaRouter
				ru.viaAddr = e.net.Router(st.ViaRouter).Loopback
			} else {
				ru.direct = true
				ru.out = st.Out
			}
		}
		statics = append(statics, ru)
	}
	if len(statics) > 0 {
		groups = append(groups, statics)
	}
	// BGP candidates, already preference-sorted by routesim.
	cands := e.rs.BGP.RIBs[r][pfx]
	i := 0
	for i < len(cands) {
		j := i
		var grp []rule
		for j < len(cands) && cands[i].SameRank(cands[j]) {
			c := cands[j]
			j++
			if c.AdvertiseOnly {
				continue
			}
			ru := rule{guard: c.Guard, deliver: c.Deliver, discard: c.Discard}
			if !c.Deliver && !c.Discard {
				if c.Direct {
					ru.direct = true
					ru.out = c.OutEdge
				} else {
					ru.viaRouter = c.NextHopRouter
					ru.viaAddr = c.NextHop
				}
			}
			grp = append(grp, ru)
		}
		if len(grp) > 0 {
			groups = append(groups, grp)
		}
		i = j
	}
	return groups
}

// ruleGroups builds the preference-ordered rule groups for router r and a
// destination class: longest prefix first, each prefix's groups as
// prefixRules orders them.
func (e *Engine) ruleGroups(r topo.RouterID, class int) [][]rule {
	var groups [][]rule
	for _, pfx := range e.classifier.matchedPrefixes(class) {
		groups = e.prefixRules(groups, r, pfx)
	}
	return groups
}

// fwdClasses interns forwarding classes (DESIGN.md §6). Two prefixes are in
// one prefix forwarding class when prefixRules returns equal groups for them
// at every router — same guards by node identity, same actions, same next
// hops, same rank-group boundaries — and a destination class's forwarding
// class is the tuple of its matched prefixes' classes, most specific first.
// buildIPStep reads a destination through ruleGroups only, so two
// destinations in one forwarding class get the same step at every router:
// the step cache and the STF memo are keyed by it.
type fwdClasses struct {
	ruleIDs  map[rule]uint32
	ofPrefix map[netip.Prefix]int32
	bySig    map[string]int32 // a prefix's rule ids, router by router
	ofClass  []int32          // destination class -> 1 + forwarding class; 0: not derived yet
	byTuple  map[string]int32
	repClass []int // forwarding class -> the destination class that first had it
	buf      []byte
}

// Signature marks; rule ids stay below them.
const (
	sigGroupEnd  = ^uint32(0)
	sigRouterEnd = ^uint32(0) - 1
)

func newFwdClasses() fwdClasses {
	return fwdClasses{
		ruleIDs:  make(map[rule]uint32),
		ofPrefix: make(map[netip.Prefix]int32),
		bySig:    make(map[string]int32),
		byTuple:  make(map[string]int32),
	}
}

// fwdClass returns the forwarding class of a destination class, deriving it
// on first use.
func (e *Engine) fwdClass(class int) int32 {
	fw := &e.fwd
	for len(fw.ofClass) <= class {
		fw.ofClass = append(fw.ofClass, 0)
	}
	if fc := fw.ofClass[class]; fc != 0 {
		return fc - 1
	}
	var tuple []byte
	for _, pfx := range e.classifier.matchedPrefixes(class) {
		tuple = binary.LittleEndian.AppendUint32(tuple, uint32(e.prefixFwdClass(pfx)))
	}
	fc, ok := fw.byTuple[string(tuple)]
	if !ok {
		fc = int32(len(fw.byTuple))
		fw.byTuple[string(tuple)] = fc
		fw.repClass = append(fw.repClass, class)
	}
	fw.ofClass[class] = fc + 1
	return fc
}

// prefixFwdClass interns one prefix's forwarding class from its signature:
// the ids of its rules at every router, in router order, with group and
// router boundaries marked.
func (e *Engine) prefixFwdClass(pfx netip.Prefix) int32 {
	fw := &e.fwd
	if pc, ok := fw.ofPrefix[pfx]; ok {
		return pc
	}
	sig := fw.buf[:0]
	var groups [][]rule
	for r := 0; r < e.net.NumRouters(); r++ {
		groups = e.prefixRules(groups[:0], topo.RouterID(r), pfx)
		for _, grp := range groups {
			for _, ru := range grp {
				id, ok := fw.ruleIDs[ru]
				if !ok {
					id = uint32(len(fw.ruleIDs))
					fw.ruleIDs[ru] = id
				}
				sig = binary.LittleEndian.AppendUint32(sig, id)
			}
			sig = binary.LittleEndian.AppendUint32(sig, sigGroupEnd)
		}
		sig = binary.LittleEndian.AppendUint32(sig, sigRouterEnd)
	}
	fw.buf = sig
	pc, ok := fw.bySig[string(sig)]
	if !ok {
		pc = int32(len(fw.bySig))
		fw.bySig[string(sig)] = pc
		e.count.fwdClasses.Inc()
	}
	fw.ofPrefix[pfx] = pc
	e.count.prefixes.Inc()
	return pc
}

// stepFor returns the cached unit-forwarding step of router r for a
// forwarding class, a DSCP and an arriving label stack: the paper's Function
// forwardIp (empty stack) or forwardSr, plus the route selection, ECMP and
// route iteration encodings. A step that no DSCP-specific SR policy could
// have changed is kept once, under anyDSCP, for every DSCP.
func (e *Engine) stepFor(r topo.RouterID, fc int32, dscp uint8, sid stackID) *step {
	key := stepKey{r, fc, anyDSCP, sid}
	if st, ok := e.steps[key]; ok {
		e.stepHits++
		return st
	}
	key.dscp = int16(dscp)
	if st, ok := e.steps[key]; ok {
		e.stepHits++
		return st
	}
	var st *step
	if sid == 0 {
		st = e.buildIPStep(r, fc, dscp, 0)
	} else {
		st = &step{delivered: e.m.Zero(), dropped: e.m.Zero()}
		e.emitSR(st, r, fc, dscp, e.stacks.stacks[sid], e.m.One(), 0)
	}
	if !st.dscpSensitive {
		key.dscp = anyDSCP
	}
	e.steps[key] = st
	e.count.stepsBuilt.Inc()
	return st
}

// buildIPStep computes the unit step for IP forwarding. depth guards SR
// policy chains.
func (e *Engine) buildIPStep(r topo.RouterID, fc int32, dscp uint8, depth int) *step {
	m, fv := e.m, e.fv
	st := &step{delivered: m.Zero(), dropped: m.Zero()}
	groups := e.ruleGroups(r, e.fwd.repClass[fc])
	if len(groups) == 0 {
		// No route: everything arriving here is dropped.
		st.dropped = m.One()
		return st
	}
	// Route selection encoding s_r (present and all strictly more
	// preferred absent) and ECMP encoding c_r = s_r / Σ s.
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
	// Selection guards are {0,1}, so their sum is exact and a balanced
	// fused tree is safe (see FailVars.ReduceSum).
	total := fv.ReduceSum(sels)
	// Traffic with no selected rule at all is dropped (no route).
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
			e.addOut(st, ru.out, 0, c)
		default:
			e.resolveNhIP(st, r, fc, dscp, ru.rule, c, depth)
		}
	}
	return st
}

// resolveNhIP implements Function resolveNhIp: SR policy match first, then
// IGP route iteration (paper §4.4).
func (e *Engine) resolveNhIP(st *step, r topo.RouterID, fc int32, dscp uint8, ru rule, c *mtbdd.Node, depth int) {
	m, fv := e.m, e.fv
	if depth < maxSRChain {
		pol, sensitive := e.matchSRPolicy(r, ru.viaAddr, dscp)
		st.dscpSensitive = st.dscpSensitive || sensitive
		if pol != nil {
			e.steer(st, r, fc, dscp, pol, c, depth)
			return
		}
	}
	// Plain IGP route iteration.
	vec := e.igpVec(r, ru.viaRouter)
	for _, lf := range vec.perLink {
		e.addOut(st, lf.link, 0, fv.ReduceMul(c, lf.frac))
	}
	st.dropped = fv.ReduceAdd(st.dropped, fv.ReduceMul(c, m.Sub(m.One(), vec.total)))
}

// steer splits the share c of a step over the weighted paths of the SR
// policy its next hop matched.
func (e *Engine) steer(st *step, r topo.RouterID, fc int32, dscp uint8, pol *routesim.GuardedSRPolicy, c *mtbdd.Node, depth int) {
	m, fv := e.m, e.fv
	// Weighted SR paths: c_p = g_p * w_p / Σ g_p' * w_p'. Integer
	// weights times {0,1} guards sum exactly, and the fused
	// multiply-accumulate never materializes the scaled products.
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
		e.emitSR(st, r, fc, dscp, stack(p.Segments), fv.ReduceMul(c, cp), depth+1)
	}
	// Scenarios where no SR path is valid: the policy holds the
	// traffic and it is dropped (strict steering).
	rem := fv.ReduceMul(c, m.Sub(m.One(), served))
	st.dropped = fv.ReduceAdd(st.dropped, rem)
}

// emitSR routes traffic carrying label stack s out of router r: pop any
// leading self-segments, then steer toward the first segment over the IGP
// (Function forwardSr).
func (e *Engine) emitSR(st *step, r topo.RouterID, fc int32, dscp uint8, s stack, w *mtbdd.Node, depth int) {
	m, fv := e.m, e.fv
	for len(s) > 0 && s[0] == r {
		s = s[1:]
	}
	if len(s) == 0 {
		// Stack exhausted at this router: continue as IP traffic here. The
		// inlined step's DSCP-sensitivity is this step's too.
		sub := e.buildIPStep(r, fc, dscp, depth)
		st.dscpSensitive = st.dscpSensitive || sub.dscpSensitive
		st.delivered = fv.ReduceMulAdd(st.delivered, w, sub.delivered)
		st.dropped = fv.ReduceMulAdd(st.dropped, w, sub.dropped)
		for _, o := range sub.outs {
			e.addOut(st, o.link, o.stack, fv.ReduceMul(w, o.frac))
		}
		return
	}
	sid := e.stacks.intern(s)
	vec := e.igpVec(r, s[0])
	for _, lf := range vec.perLink {
		e.addOut(st, lf.link, sid, fv.ReduceMul(w, lf.frac))
	}
	st.dropped = fv.ReduceAdd(st.dropped, fv.ReduceMul(w, m.Sub(m.One(), vec.total)))
}

// addOut adds frac to the step's out on link l with stack sid, keeping outs
// in (link, stack key) order.
func (e *Engine) addOut(st *step, l topo.DirLinkID, sid stackID, frac *mtbdd.Node) {
	if frac == e.m.Zero() {
		return
	}
	i, found := slices.BinarySearchFunc(st.outs, stepOut{link: l, stack: sid}, func(o, t stepOut) int {
		if o.link != t.link {
			return int(o.link) - int(t.link)
		}
		return e.stacks.compare(o.stack, t.stack)
	})
	if found {
		st.outs[i].frac = e.fv.ReduceAdd(st.outs[i].frac, frac)
		return
	}
	st.outs = slices.Insert(st.outs, i, stepOut{link: l, to: e.net.Edge(l).To, stack: sid, frac: frac})
}

// matchSRPolicy returns the first SR policy of r matching the next-hop
// address and DSCP, if any, and whether the answer depends on the DSCP: a
// policy that names one and covers the next hop came before any wildcard
// policy that does. Policies match first-to-last, so without such a policy
// the first wildcard match (or no match) is the answer for every DSCP.
func (e *Engine) matchSRPolicy(r topo.RouterID, nip netip.Addr, dscp uint8) (pol *routesim.GuardedSRPolicy, sensitive bool) {
	for i := range e.rs.SR[r] {
		p := &e.rs.SR[r][i]
		if !p.Endpoint.Contains(nip) {
			continue
		}
		if p.MatchDSCP < 0 {
			return p, sensitive
		}
		if p.MatchDSCP == int(dscp) {
			return p, true
		}
		sensitive = true
	}
	return nil, sensitive
}

// igpVec returns the cached V^IGP_dest vector at router r: per outgoing
// link, the ratio of traffic resolved onto it, built from the guarded
// IS-IS RIB with the s/c encodings (paper Figure 7).
func (e *Engine) igpVec(r, dest topo.RouterID) *igpVec {
	key := igpKey{r, dest}
	if v, ok := e.igpCache[key]; ok {
		return v
	}
	m, fv := e.m, e.fv
	v := &igpVec{total: m.Zero()}
	if r == dest {
		// Traffic destined to the local router resolves nowhere; treat
		// the total as fully served so nothing is dropped spuriously.
		v.total = m.One()
		e.igpCache[key] = v
		return v
	}
	routes := e.rs.IGP.Routes(r, dest)
	if len(routes) > 0 {
		sels := make([]*mtbdd.Node, len(routes))
		better := m.Zero()
		i := 0
		for i < len(routes) {
			j := i
			groupOr := m.Zero()
			for j < len(routes) && routes[j].Cost == routes[i].Cost {
				sels[j] = fv.ReduceAnd(routes[j].Guard, m.Not(better))
				groupOr = m.Or(groupOr, routes[j].Guard)
				j++
			}
			better = fv.ReduceOr(better, groupOr)
			i = j
		}
		// Exact {0,1} selection guards: balanced fused sum is safe.
		total := fv.ReduceSum(sels)
		for idx, rt := range routes {
			if sels[idx] == m.Zero() {
				continue
			}
			c := fv.ReduceDiv(sels[idx], total)
			if c == m.Zero() {
				continue
			}
			at, found := slices.BinarySearchFunc(v.perLink, rt.Out, func(lf linkFrac, l topo.DirLinkID) int {
				return int(lf.link) - int(l)
			})
			if found {
				// Fractional ratios: keep the in-order pairwise fold so the
				// float expression matches the legacy pipeline bit-for-bit.
				v.perLink[at].frac = fv.ReduceAdd(v.perLink[at].frac, c)
			} else {
				v.perLink = slices.Insert(v.perLink, at, linkFrac{rt.Out, c})
			}
		}
		v.total = fv.ReduceMin(total, m.One())
	}
	e.igpCache[key] = v
	return v
}
