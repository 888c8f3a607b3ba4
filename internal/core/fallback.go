package core

import (
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// concreteFallbackSTF is rung 3 of the degradation ladder: when a
// flow's symbolic execution cannot fit in the node budget even after a
// GC, its STF is rebuilt by bounded concrete enumeration — one concrete
// simulation per failure scenario within the budget k, stitched into an
// MTBDD with an ITE chain. The result is pointwise identical to the
// symbolic STF on every assignment with at most k failures (the only
// region Theorem 5.1 reads) — on forwarding loops too, because the concrete
// simulator stops at the engine's hop bound (topo.Network.HopBound); only
// the loop residue moves, from InFlight to Dropped — so downstream
// aggregation and checking are unchanged; it merely costs O(C(n,≤k))
// simulations for this one flow.
//
// The scenarios are applied in order of increasing failure-set size, so
// for any assignment with failure set Z (|Z| ≤ k) the last ITE whose
// guard covers it is the one for Z itself — later, larger scenarios
// override smaller ones, which is what makes the chain exact.
//
// The node budget is lifted while the chain is built (and restored
// after): the fallback must make progress on the very manager that just
// breached. The chain is built from KReduce'd pieces, so its size is
// bounded by the k-failure-equivalence quotient, not by the breach.
// The interrupt hook stays armed, so the fallback remains cancellable.
//
// cause is the budget error that triggered the fallback; it is returned
// when the fallback itself is impossible (no configs, no finite k).
func (e *Engine) concreteFallbackSTF(f topo.Flow, cause error) (*FlowSTF, error) {
	if e.opts.Configs == nil {
		return nil, cause
	}
	k := e.fv.K
	if k < 0 {
		k = e.opts.CheckK // the no-KReduce ablation still has a real k
	}
	if k < 0 {
		return nil, cause
	}

	m := e.m
	prevBudget := m.NodeBudget()
	m.SetNodeBudget(0)
	defer m.SetNodeBudget(prevBudget)

	var out *FlowSTF
	err := mtbdd.Guard(func() {
		out = e.buildFallbackSTF(f, k)
	})
	if err != nil {
		return nil, err
	}
	e.opts.Obs.Counter("govern.concrete_fallbacks").Inc()
	e.opts.Obs.Log().Once("degrade:"+f.String(),
		"yu: flow %s degraded to bounded concrete enumeration (node budget)", f)
	return out, err
}

// fbElem is one failable element for the fallback enumeration, mirroring
// the concrete baseline's (unexported) elem.
type fbElem struct {
	link   topo.LinkID
	router topo.RouterID
	isLink bool
}

func (el fbElem) apply(sc *concrete.Scenario, down bool) {
	if el.isLink {
		sc.LinkDown[el.link] = down
	} else {
		sc.RouterDown[el.router] = down
	}
}

// failableElems lists the elements that may fail under the engine's
// failure mode, in the same deterministic order the concrete baseline
// enumerates them.
func (e *Engine) failableElems() []fbElem {
	var elems []fbElem
	mode := e.fv.Mode
	if mode == topo.FailLinks || mode == topo.FailBoth {
		for i := range e.net.Links {
			if !e.net.Links[i].NoFail {
				elems = append(elems, fbElem{link: topo.LinkID(i), isLink: true})
			}
		}
	}
	if mode == topo.FailRouters || mode == topo.FailBoth {
		for i := range e.net.Routers {
			if !e.net.Routers[i].NoFail {
				elems = append(elems, fbElem{router: topo.RouterID(i)})
			}
		}
	}
	return elems
}

func (e *Engine) buildFallbackSTF(f topo.Flow, k int) *FlowSTF {
	m, fv := e.m, e.fv
	sim := concrete.NewSim(e.net, e.opts.Configs)
	elems := e.failableElems()
	if k > len(elems) {
		k = len(elems)
	}

	out := &FlowSTF{
		Flow:      f,
		Links:     make(map[topo.DirLinkID]*mtbdd.Node),
		Delivered: m.Zero(),
		Dropped:   m.Zero(),
		InFlight:  m.Zero(),
		Degraded:  true,
	}
	vol := f.Gbps
	if vol <= 0 {
		return out
	}

	sc := concrete.NewScenario(e.net)
	apply := func(guard *mtbdd.Node) {
		rt := sim.ComputeRoutes(sc)
		tr := sim.SimulateFlow(rt, f)
		// Every link seen so far must be updated under this guard —
		// absent from this scenario's trace means fraction 0 there,
		// and larger scenarios must override smaller ones everywhere.
		for l, w := range out.Links {
			out.Links[l] = m.ITE(guard, m.Const(tr.Load[l]/vol), w)
		}
		for l, load := range tr.Load {
			if _, seen := out.Links[l]; !seen {
				// First appearance: all earlier scenarios carried 0
				// here, so the zero base encodes them exactly.
				out.Links[l] = m.ITE(guard, m.Const(load/vol), m.Zero())
			}
		}
		out.Delivered = m.ITE(guard, m.Const(tr.Delivered/vol), out.Delivered)
		out.Dropped = m.ITE(guard, m.Const(tr.Dropped/vol), out.Dropped)
	}

	// Size 0 first (the all-alive base case), then every failure set of
	// each size up to k, in increasing size order.
	apply(m.One())
	chosen := make([]fbElem, 0, k)
	var visit func(start, need int)
	visit = func(start, need int) {
		if err := govern.Check(e.opts.Ctx); err != nil {
			mtbdd.Abort(err)
		}
		if need == 0 {
			guard := m.One()
			for _, el := range chosen {
				v := -1
				if el.isLink {
					v = fv.LinkVar(el.link)
				} else {
					v = fv.RouterVar(el.router)
				}
				guard = m.And(guard, m.NVar(v))
			}
			apply(guard)
			return
		}
		for i := start; i <= len(elems)-need; i++ {
			el := elems[i]
			el.apply(sc, true)
			chosen = append(chosen, el)
			visit(i+1, need-1)
			chosen = chosen[:len(chosen)-1]
			el.apply(sc, false)
		}
	}
	for size := 1; size <= k; size++ {
		visit(0, size)
	}

	// Reduce and prune: links with an identically-zero reduced STF were
	// never crossed within the budget and would only pollute the
	// link-local class counts.
	for l, w := range out.Links {
		r := fv.Reduce(w)
		if r == m.Zero() {
			delete(out.Links, l)
		} else {
			out.Links[l] = r
		}
	}
	out.Delivered = fv.Reduce(out.Delivered)
	out.Dropped = fv.Reduce(out.Dropped)
	return out
}
