package concrete

import (
	"context"
	"errors"
	"math"
	"net/netip"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/topo"
)

// EnumViolation is one violation found by scenario enumeration.
type EnumViolation struct {
	Kind          string // "link-load" or "delivered"
	Link          topo.DirLinkID
	Prefix        netip.Prefix
	Value         float64
	Min, Max      float64
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
}

// EnumReport is the result of enumerating verification.
type EnumReport struct {
	Violations []EnumViolation
	Holds      bool
	// Scenarios is the number of concrete scenarios simulated.
	Scenarios int
	// SimulatedFlows counts flow simulations executed (for the
	// incremental mode this is less than Scenarios × flows).
	SimulatedFlows int
	// TimedOut is set when the deadline expired before the enumeration
	// finished; Holds is then meaningless.
	TimedOut bool
	// Err is the governance error that cut the enumeration short
	// (govern.ErrCanceled / govern.ErrDeadline); nil on a full run.
	// Holds is meaningless when Err is non-nil.
	Err error
}

// EnumOptions configures enumeration.
type EnumOptions struct {
	// StopAtFirst returns after the first violation.
	StopAtFirst bool
	// Incremental skips re-simulating flows provably unaffected by the
	// scenario: flows whose baseline (no-failure) trajectory avoids every
	// failed element AND whose visited routers all kept their baseline
	// routing state (IGP rows and BGP RIBs) — the spirit of Jingubang's
	// incremental simulation. The trajectory test alone is unsound: a
	// remote failure can sever an iBGP session or shift IGP state at a
	// router the flow visits, rerouting it even though the failed link
	// itself carried none of its traffic.
	Incremental bool
	// OverloadFactor, when > 0, checks load <= factor×capacity on every
	// directed link.
	OverloadFactor float64
	Bounds         []topo.LoadBound
	Delivered      []topo.DeliveredBound
	// Ctx, when non-nil, makes the enumeration cancellable; it is polled
	// before every scenario, so an abort waits for at most the scenario in
	// flight. Wall-clock limits are expressed as a deadline on Ctx
	// (context.WithTimeout / WithDeadline).
	Ctx context.Context
}

// VerifyKFailures enumerates every failure scenario with at most k failed
// elements of the given mode and checks the properties concretely — the
// O(n^k) baseline the paper compares against.
func (s *Sim) VerifyKFailures(flows []topo.Flow, k int, mode topo.FailureMode, opts EnumOptions) *EnumReport {
	rep := &EnumReport{Holds: true}
	ctx := opts.Ctx

	var elems []elem
	if mode == topo.FailLinks || mode == topo.FailBoth {
		for i := range s.net.Links {
			if !s.net.Links[i].NoFail {
				elems = append(elems, elem{link: topo.LinkID(i), isLink: true})
			}
		}
	}
	if mode == topo.FailRouters || mode == topo.FailBoth {
		for i := range s.net.Routers {
			if !s.net.Routers[i].NoFail {
				elems = append(elems, elem{router: topo.RouterID(i)})
			}
		}
	}

	sc := NewScenario(s.net)
	var chosen []elem

	// Incremental mode: simulate the no-failure baseline once and keep
	// per-flow traces plus the baseline routing state. A flow needs
	// re-simulation under a scenario only if a failed element lies on its
	// baseline trajectory, or a router it visits no longer has its
	// baseline routing state. The first test alone is NOT sufficient:
	// failing a link far from a flow's path can sever an iBGP session (or
	// change IGP reachability) and thereby withdraw or replace routes at
	// a router the flow traverses.
	var baseTraces []*FlowTrace
	var baseLoad map[topo.DirLinkID]float64
	var baseRoutes *routesFor
	if opts.Incremental {
		baseRoutes = s.ComputeRoutes(NewScenario(s.net))
		baseLoad = make(map[topo.DirLinkID]float64)
		for _, f := range flows {
			tr := s.SimulateFlow(baseRoutes, f)
			baseTraces = append(baseTraces, tr)
			for l, v := range tr.Load {
				baseLoad[l] += v
			}
		}
	}

	affected := func(rt *routesFor) []int {
		changed := s.changedRouters(baseRoutes, rt)
		var out []int
		for fi, tr := range baseTraces {
			hit := false
			for _, e := range chosen {
				if e.isLink {
					l := e.link
					if tr.Load[topo.MakeDirLinkID(l, topo.AtoB)] > 0 || tr.Load[topo.MakeDirLinkID(l, topo.BtoA)] > 0 {
						hit = true
						break
					}
				} else if tr.Routers[e.router] {
					hit = true
					break
				}
			}
			for r := range tr.Routers {
				if hit {
					break
				}
				hit = changed[r]
			}
			if hit {
				out = append(out, fi)
			}
		}
		return out
	}

	var visit func(start, budget int) bool
	check := func() bool {
		if err := govern.Check(ctx); err != nil {
			rep.Err = err
			rep.TimedOut = errors.Is(err, govern.ErrDeadline)
			return false
		}
		rep.Scenarios++
		var res *ScenarioResult
		if opts.Incremental {
			rt := s.ComputeRoutes(sc)
			aff := affected(rt)
			res = &ScenarioResult{
				Load:      make(map[topo.DirLinkID]float64, len(baseLoad)),
				Delivered: make([]float64, len(flows)),
				Dropped:   make([]float64, len(flows)),
			}
			for l, v := range baseLoad {
				res.Load[l] = v
			}
			for fi, tr := range baseTraces {
				res.Delivered[fi] = tr.Delivered
				res.Dropped[fi] = tr.Dropped
			}
			for _, fi := range aff {
				old := baseTraces[fi]
				for l, v := range old.Load {
					res.Load[l] -= v
				}
				tr := s.SimulateFlow(rt, flows[fi])
				rep.SimulatedFlows++
				res.Delivered[fi] = tr.Delivered
				res.Dropped[fi] = tr.Dropped
				for l, v := range tr.Load {
					res.Load[l] += v
				}
			}
		} else {
			res = s.Simulate(sc, flows)
			rep.SimulatedFlows += len(flows)
		}
		return s.checkScenario(sc, chosen, flows, res, opts, rep)
	}
	visit = func(start, budget int) bool {
		if !check() {
			return false
		}
		if budget == 0 {
			return true
		}
		for i := start; i < len(elems); i++ {
			e := elems[i]
			e.apply(sc, true)
			chosen = append(chosen, e)
			ok := visit(i+1, budget-1)
			chosen = chosen[:len(chosen)-1]
			e.apply(sc, false)
			if !ok {
				return false
			}
		}
		return true
	}
	visit(0, k)
	rep.Holds = len(rep.Violations) == 0
	return rep
}

// changedRouters reports, per router, whether its routing state under rt
// differs from the baseline: any IGP distance or next-hop set, or any BGP
// RIB entry. A flow whose visited routers are all unchanged (and whose
// trajectory avoids every failed element) forwards exactly as in the
// baseline, so it can be skipped.
func (s *Sim) changedRouters(base, rt *routesFor) []bool {
	n := s.net.NumRouters()
	changed := make([]bool, n)
	for r := 0; r < n; r++ {
		if !sameConcRIB(base.bgp.ribs[r], rt.bgp.ribs[r]) {
			changed[r] = true
			continue
		}
		for dest := 0; dest < n; dest++ {
			if base.igp.dist[r][dest] != rt.igp.dist[r][dest] {
				changed[r] = true
				break
			}
			a, b := base.igp.nh[r][dest], rt.igp.nh[r][dest]
			if len(a) != len(b) {
				changed[r] = true
				break
			}
			for i := range a {
				if a[i] != b[i] {
					changed[r] = true
					break
				}
			}
			if changed[r] {
				break
			}
		}
	}
	return changed
}

type elem struct {
	link   topo.LinkID
	router topo.RouterID
	isLink bool
}

func (e elem) apply(sc *Scenario, down bool) {
	if e.isLink {
		sc.LinkDown[e.link] = down
	} else {
		sc.RouterDown[e.router] = down
	}
}

// checkScenario evaluates the properties for one simulated scenario.
// Returns false to stop enumeration.
func (s *Sim) checkScenario(sc *Scenario, chosen []elem, flows []topo.Flow,
	res *ScenarioResult, opts EnumOptions, rep *EnumReport) bool {

	var fl []topo.LinkID
	var fr []topo.RouterID
	for _, e := range chosen {
		if e.isLink {
			fl = append(fl, e.link)
		} else {
			fr = append(fr, e.router)
		}
	}
	record := func(v EnumViolation) bool {
		v.FailedLinks = append([]topo.LinkID(nil), fl...)
		v.FailedRouters = append([]topo.RouterID(nil), fr...)
		rep.Violations = append(rep.Violations, v)
		return !opts.StopAtFirst
	}
	const eps = 1e-6
	if opts.OverloadFactor > 0 {
		for li := range s.net.Links {
			link := s.net.Link(topo.LinkID(li))
			limit := link.Capacity * opts.OverloadFactor
			for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
				dl := topo.MakeDirLinkID(link.ID, d)
				if load := res.Load[dl]; load > limit-eps {
					if !record(EnumViolation{Kind: "link-load", Link: dl, Value: load, Max: limit}) {
						return false
					}
				}
			}
		}
	}
	for _, b := range opts.Bounds {
		dirs := []topo.Direction{topo.AtoB, topo.BtoA}
		if b.DirSpecified {
			dirs = []topo.Direction{b.Dir}
		}
		for _, d := range dirs {
			dl := topo.MakeDirLinkID(b.Link, d)
			load := res.Load[dl]
			if load < b.Min-eps || load > b.Max+eps {
				if !record(EnumViolation{Kind: "link-load", Link: dl, Value: load, Min: b.Min, Max: b.Max}) {
					return false
				}
			}
		}
	}
	for _, b := range opts.Delivered {
		total := 0.0
		for fi, f := range flows {
			if b.Prefix.Contains(f.Dst) {
				total += res.Delivered[fi]
			}
		}
		if total < b.Min-1e-6 || (!math.IsInf(b.Max, 1) && total > b.Max+1e-6) {
			if !record(EnumViolation{Kind: "delivered", Prefix: b.Prefix, Value: total, Min: b.Min, Max: b.Max}) {
				return false
			}
		}
	}
	return true
}
