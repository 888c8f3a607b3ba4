package routesim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// Result is the complete output of symbolic route simulation: everything
// symbolic traffic execution (internal/core) needs.
type Result struct {
	Vars *FailVars
	IGP  *IGP
	BGP  *BGP
	// SR holds each router's guarded SR policies (indexed by RouterID).
	SR [][]GuardedSRPolicy
	// Statics holds each router's guarded static routes.
	Statics [][]GuardedStatic
	// Stats says what the simulation cost.
	Stats Stats
}

// Stats is the cost of one route simulation: wall time per stage and the
// work counters behind it.
type Stats struct {
	IGPTime, BGPTime, FinishTime time.Duration
	// IGPLevels counts the (router, destination, cost) path-existence
	// levels built; IGPPruned those of them dropped as never selectable
	// within the failure budget.
	IGPLevels, IGPPruned int
	// BGPRounds is the number of synchronous rounds run. BGPEntries counts
	// the non-empty (router, prefix) RIB entries at the end, BGPRecomputed
	// the entry evaluations summed over all rounds — re-evaluating every
	// entry every round would have cost BGPRounds × BGPEntries.
	BGPRounds, BGPEntries, BGPRecomputed int
	// TemplatesRebuilt counts advertisement-template rebuilds (one per RIB
	// entry that moved), ASPaths the distinct AS paths interned.
	TemplatesRebuilt, ASPaths int
	// BGPOffers counts the routes offered to RIB entry evaluations — seeds,
	// and templates a session peer advertised that the receiver did not
	// reject — summed over all evaluations; BGPOffersCut those of them
	// ranked past a cover, never built (DESIGN.md §19).
	BGPOffers, BGPOffersCut int
}

// Add accumulates o into s: the cost of several simulations, e.g. one
// per domain of a compositional run.
func (s *Stats) Add(o Stats) {
	s.IGPTime += o.IGPTime
	s.BGPTime += o.BGPTime
	s.FinishTime += o.FinishTime
	s.IGPLevels += o.IGPLevels
	s.IGPPruned += o.IGPPruned
	s.BGPRounds += o.BGPRounds
	s.BGPEntries += o.BGPEntries
	s.BGPRecomputed += o.BGPRecomputed
	s.TemplatesRebuilt += o.TemplatesRebuilt
	s.ASPaths += o.ASPaths
	s.BGPOffers += o.BGPOffers
	s.BGPOffersCut += o.BGPOffersCut
}

// ErrNotConverged reports a BGP fixed point that was still moving when
// the round budget (topo.Network.RoundBound) ran out — a policy dispute
// such as DISAGREE. RIBs read off the last round describe no stable
// routing state, so no Result, and no verdict, is produced from them.
type ErrNotConverged struct {
	// Rounds is the number of synchronous rounds run.
	Rounds int
	// Changing names a few of the (router, prefix) RIB entries that moved
	// in the last round.
	Changing []string
}

func (e *ErrNotConverged) Error() string {
	msg := fmt.Sprintf("routesim: BGP did not converge in %d rounds", e.Rounds)
	if len(e.Changing) > 0 {
		msg += "; still changing: " + strings.Join(e.Changing, ", ")
	}
	return msg
}

// Run performs symbolic route simulation for the network and
// configurations under the failure variables fv.
func Run(fv *FailVars, cfgs config.Configs) (*Result, error) {
	return RunContext(context.Background(), fv, cfgs, nil)
}

// RunContext is Run with cancellation: a context poll is installed as
// the manager's interrupt hook for the duration of the simulation (the
// previous hook is restored on return), so a cancel or deadline unwinds
// the symbolic computation and surfaces as govern.ErrCanceled or
// govern.ErrDeadline. A node-budget breach on the manager surfaces as
// govern.ErrNodeBudget the same way.
//
// With a carrier, IS-IS is replayed from the result it carries under fv's
// topology key when it has one, and computed and offered to it otherwise.
// BGP is replayed prefix by prefix from the result it carries under the
// run's BGP key: a prefix whose own inputs are unchanged is replayed, and
// the rest run in one Stepper restricted to them, from scratch — never
// restarted from another run's fixed point, which could settle in a
// different stable state than a cold run (carry.go).
func RunContext(ctx context.Context, fv *FailVars, cfgs config.Configs, carrier Carrier) (res *Result, err error) {
	if ctx != nil && ctx != context.Background() {
		prev := fv.M.SetInterrupt(func() error { return govern.Check(ctx) })
		defer fv.M.SetInterrupt(prev)
	}
	defer func() {
		if r := recover(); r != nil {
			if e := mtbdd.AbortError(r); e != nil {
				res, err = nil, e
				return
			}
			panic(r)
		}
	}()
	if err := govern.Check(ctx); err != nil {
		return nil, err
	}
	igp := carriedIGP(fv, carrier)
	bgp := carriedBGP(fv, cfgs, igp, carrier)
	return FinishRun(fv, cfgs, igp, bgp)
}

// FinishRun resolves SR policies and static routes on top of an
// already-computed IGP and BGP state, producing the complete Result. It
// is the tail of RunContext, split out so the compositional coordinator
// (internal/compose) can drive BGP itself — per-domain steppers in
// lockstep — and still share the exact SR/static resolution code path
// with the monolithic run. A BGP state that did not converge yields
// *ErrNotConverged instead of a Result.
func FinishRun(fv *FailVars, cfgs config.Configs, igp *IGP, bgp *BGP) (*Result, error) {
	if !bgp.Converged {
		return nil, &ErrNotConverged{Rounds: bgp.Rounds, Changing: bgp.changing}
	}
	start := time.Now()
	net := fv.Net
	res := &Result{
		Vars:    fv,
		IGP:     igp,
		BGP:     bgp,
		SR:      make([][]GuardedSRPolicy, net.NumRouters()),
		Statics: make([][]GuardedStatic, net.NumRouters()),
	}
	for name, rc := range cfgs {
		r, ok := net.RouterByName(name)
		if !ok {
			return nil, fmt.Errorf("routesim: config for unknown router %q", name)
		}
		// SR policies.
		var pols []srConfigPolicy
		for _, p := range rc.SRPolicies {
			cp := srConfigPolicy{endpoint: p.Endpoint, dscp: p.MatchDSCP}
			for _, path := range p.Paths {
				var segs []topo.RouterID
				for _, addr := range path.Segments {
					owner, ok := net.RouterByLoopback(addr)
					if !ok {
						return nil, fmt.Errorf("routesim: %s: SR segment %s is not a loopback", name, addr)
					}
					segs = append(segs, owner.ID)
				}
				cp.paths = append(cp.paths, srConfigPath{segments: segs, weight: path.Weight})
			}
			pols = append(pols, cp)
		}
		res.SR[r.ID] = computeSR(fv, igp, r, pols)

		// Static routes.
		for _, st := range rc.Statics {
			gs := GuardedStatic{Prefix: st.Prefix, Discard: st.Discard, Guard: fv.RouterUp(r.ID)}
			if !st.Discard {
				if d, ok := net.DirLinkToAddr(st.NextHop); ok {
					e := net.Edge(d)
					if e.From != r.ID {
						return nil, fmt.Errorf("routesim: %s: static next hop %s is not local", name, st.NextHop)
					}
					gs.Out = d
					gs.Guard = fv.ReduceAnd(gs.Guard, fv.EdgeUp(e))
				} else if owner, ok := net.RouterByLoopback(st.NextHop); ok {
					gs.Indirect = true
					gs.ViaRouter = owner.ID
				} else {
					return nil, fmt.Errorf("routesim: %s: static next hop %s unresolvable", name, st.NextHop)
				}
			}
			res.Statics[r.ID] = append(res.Statics[r.ID], gs)
		}
	}
	res.Stats = igp.stats
	res.Stats.Add(bgp.stats)
	res.Stats.FinishTime = time.Since(start)
	return res, nil
}

// EmptyResult returns a route-sim result with no routes at all, sized for
// fv.Net: every RIB empty, every guard set empty. The compositional
// check engine uses it when every equivalence class was executed inside a
// domain — the check manager then never route-simulates the global
// network, which is the whole point of decomposition. Classification is
// overridden separately (core.Options.ClassifyPrefixes).
func EmptyResult(fv *FailVars) *Result {
	net := fv.Net
	igp := newIGP(fv)
	bgp := &BGP{RIBs: make([]BGPRIB, net.NumRouters()), Converged: true}
	for i := range bgp.RIBs {
		bgp.RIBs[i] = make(BGPRIB)
	}
	return &Result{
		Vars:    fv,
		IGP:     igp,
		BGP:     bgp,
		SR:      make([][]GuardedSRPolicy, net.NumRouters()),
		Statics: make([][]GuardedStatic, net.NumRouters()),
	}
}
