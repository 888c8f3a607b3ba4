package core

import "github.com/yu-verify/yu/internal/mtbdd"

// defaultGCThreshold is the live-node count that triggers a managed GC
// (roughly half a GiB of nodes plus table overhead).
const defaultGCThreshold = 4 << 20

// roots gathers every MTBDD node the engine must keep across a garbage
// collection: all guards in the route simulation result, the contents of the
// forwarding-encoding caches and the memoized STFs. extra carries the caller's live
// nodes (accumulated STFs, partial sums).
func (e *Engine) roots(extra []*mtbdd.Node) []*mtbdd.Node {
	out := extra
	if rs := e.rs; rs != nil { // nil once a finished verifier was trimmed
		for r := 0; r < e.net.NumRouters(); r++ {
			for _, rib := range rs.BGP.RIBs[r] {
				for _, c := range rib {
					out = append(out, c.Guard)
				}
			}
			for _, p := range rs.SR[r] {
				for _, path := range p.Paths {
					out = append(out, path.Guard)
				}
			}
			for _, st := range rs.Statics[r] {
				out = append(out, st.Guard)
			}
		}
		out = append(out, rs.IGP.GuardNodes()...)
	}
	for _, v := range e.igpCache {
		for _, lf := range v.perLink {
			out = append(out, lf.frac)
		}
		out = append(out, v.total)
	}
	for _, st := range e.steps {
		out = append(out, st.delivered, st.dropped)
		for _, o := range st.outs {
			out = append(out, o.frac)
		}
	}
	// A memoized STF may be handed to a later class after its first owner
	// let go of it.
	for _, s := range e.memo {
		out = stfRoots(out, []*FlowSTF{s})
	}
	return append(out, e.pinned...)
}

// stfRoots collects the live nodes of executed flows.
func stfRoots(out []*mtbdd.Node, stfs []*FlowSTF) []*mtbdd.Node {
	for _, s := range stfs {
		if s == nil {
			continue
		}
		for _, lf := range s.Links {
			out = append(out, lf.W)
		}
		out = append(out, s.Delivered, s.Dropped, s.InFlight)
	}
	return out
}

// maybeGC runs a managed garbage collection when the live node count
// exceeds the threshold, keeping the engine caches and the given flow
// results alive. If most nodes survive a collection, the threshold is
// raised to 4× the survivors to avoid thrashing (collecting over and over
// with little to reclaim while losing the operation caches each time); under
// a node budget, to at most halfway between them and the budget, so the
// next collection comes when half the headroom they leave is used.
func (e *Engine) maybeGC(stfs []*FlowSTF, extra []*mtbdd.Node) {
	if e.gcThreshold <= 0 {
		e.gcThreshold = e.opts.GCThreshold
		if e.gcThreshold <= 0 {
			e.gcThreshold = defaultGCThreshold
		}
		// Under a node budget, collect before the budget would trip: the
		// budget unwinds mid-operation, a collection here is free.
		e.capThreshold(0)
	}
	if e.m.Stats().Live < e.gcThreshold {
		return
	}
	e.m.GC(e.roots(stfRoots(extra, stfs)))
	if live := e.m.Stats().Live; live*2 > e.gcThreshold {
		e.gcThreshold = live * 4
		e.capThreshold(live)
	}
}

// capThreshold keeps the threshold under a node budget at most halfway
// between the live nodes and the budget.
func (e *Engine) capThreshold(live int) {
	if b := e.opts.NodeBudget; b > 0 {
		e.gcThreshold = min(e.gcThreshold, max(live+(b-live)/2, 1))
	}
}

// retainedGCFloor is the least managed-GC threshold of a trimmed verifier.
const retainedGCFloor = 64 << 10

// Trim makes a finished verifier cheap to keep for further checks (Run,
// Check): it drops what only execution reads — the engine's forwarding-step
// and IGP-vector caches, its STF memo, forwarding classes and wavefront
// scratch, the route-simulation result and the STFCache option, and with them
// their nodes' claim to survive a collection — and makes the managed-GC
// threshold relative to what is kept: collect, the STFs as roots, once live
// nodes pass 4× the count at this point (floor 64 K; under a node budget at
// most halfway to the budget). The default threshold
// would let a long-lived verifier grow by some 190 MB of dead loads before its
// first collection. The engine cannot execute flows afterwards. The class
// keys (some 16 bytes a class) and the carrier stay: checks on the kept
// verifier carry the loads whose inputs did not move, and no check result.
func (v *Verifier) Trim() {
	e := v.e
	e.rs, e.igpCache, e.steps, e.memo, e.opts.STFCache = nil, nil, nil, nil, nil
	e.fwd, e.stacks, e.scratch = fwdClasses{}, stackTab{}, execScratch{}
	live := e.m.Stats().Live
	e.gcThreshold = max(4*live, retainedGCFloor)
	e.capThreshold(live)
}

// Collect runs a managed collection of the verifier's manager, the STFs (and
// whatever engine state has not been trimmed away) as roots: once live nodes
// have passed the engine's threshold, or at once when force is set. Between
// checks only — a node a check handed out (LinkLoad) does not survive it.
func (v *Verifier) Collect(force bool) {
	if force {
		v.e.m.GC(v.e.roots(stfRoots(nil, v.stfs)))
	} else {
		v.e.maybeGC(v.stfs, nil)
	}
}
