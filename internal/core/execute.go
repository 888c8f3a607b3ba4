package core

import (
	"slices"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// FlowSTF is the result of symbolic traffic execution for one flow
// (Algorithm 1): the symbolic traffic fraction ω_f on every directed link
// (summed over label stacks), plus the fractions delivered and dropped.
// All MTBDDs map failure scenarios to fractions in [0,1] (within the
// k-failure budget) and are KReduce'd.
type FlowSTF struct {
	Flow topo.Flow
	// Links holds the flow's STF on each directed link it crosses, in
	// ascending link order, one entry per link.
	Links []LinkFrac
	// Delivered is the fraction of the flow's traffic reaching a router
	// that originates a prefix covering the destination.
	Delivered *mtbdd.Node
	// Dropped is the fraction discarded (no route, null route, broken SR
	// policy, or ingress router down).
	Dropped *mtbdd.Node
	// InFlight is nonzero only if the iteration cap was reached with
	// traffic still circulating (a forwarding loop in some scenario).
	InFlight *mtbdd.Node
	// Iterations is the number of hops executed.
	Iterations int
	// shared marks an STF that took its nodes from an earlier class with the
	// same behaviour (Engine.memo) instead of executing.
	shared bool
}

// LinkFrac is a flow's traffic fraction W on directed link Link.
type LinkFrac struct {
	Link topo.DirLinkID
	W    *mtbdd.Node
}

// cell is one wavefront cell: the traffic fraction omega arriving at a router
// with a label stack. same chains the cells of one router while the next
// front is being merged (1 + index, 0 ends the chain).
type cell struct {
	router topo.RouterID
	stack  stackID
	same   int32
	omega  *mtbdd.Node
}

// execScratch is the engine's reusable wavefront storage, so that executing a
// flow allocates its result and nothing else. A budget breach leaves
// ExecuteFlow by panic, so nothing here is trusted on entry: the dense arrays
// are cleared and the slices restarted.
type execScratch struct {
	front, next []cell
	// cellAt[r] heads the chain of router r's cells in the next front.
	cellAt []int32
	// linkAcc[l] is the fraction accumulated on directed link l so far;
	// touched lists the links that have one, in first-touch order until the
	// flow's result is read off in link order.
	linkAcc []*mtbdd.Node
	touched []topo.DirLinkID
}

func (sc *execScratch) reset(net *topo.Network) {
	if sc.cellAt == nil {
		sc.cellAt = make([]int32, net.NumRouters())
		sc.linkAcc = make([]*mtbdd.Node, 2*net.NumLinks())
	}
	clear(sc.cellAt)
	clear(sc.linkAcc)
	sc.touched = sc.touched[:0]
}

// compareCells is the wavefront's visiting order: router, then stack key.
func (e *Engine) compareCells(a, b cell) int {
	if a.router != b.router {
		return int(a.router) - int(b.router)
	}
	return e.stacks.compare(a.stack, b.stack)
}

// memoKey identifies a forwarding behaviour: where the flow enters, its
// destination's forwarding class, and its DSCP — anyDSCP when no step the
// execution consumed was DSCP-sensitive.
type memoKey struct {
	ingress topo.RouterID
	fc      int32
	dscp    int16
}

// ExecuteFlow symbolically executes the forwarding of one flow under all
// failure scenarios (Algorithm 1). Iterations propagate a traffic
// wavefront hop by hop; per-link fractions accumulate, so the result is
// the total fraction of the flow's traffic crossing each link.
//
// A flow that forwards as an earlier one did — same ingress, same forwarding
// class, and the same DSCP unless the execution never met a DSCP-specific SR
// policy — is not executed again (§6, global flow equivalence by behaviour):
// it gets its own FlowSTF over the earlier one's nodes and Links slice, which
// nobody mutates. Options.DisableGlobalEquiv turns that off.
//
// Float MTBDD addition is not associative, so the order of accumulation is
// part of the result: front cells are visited in (router, stack key) order
// and a step's outs in (link, stack key) order, which keeps every STF
// bit-for-bit reproducible and identical across the monolithic engine and a
// compose domain's.
func (e *Engine) ExecuteFlow(f topo.Flow) *FlowSTF {
	m, fv := e.m, e.fv
	fc := e.fwdClass(e.classifier.classOf(f.Dst))
	share := !e.opts.DisableGlobalEquiv
	if share {
		prev, ok := e.memo[memoKey{f.Ingress, fc, anyDSCP}]
		if !ok {
			prev, ok = e.memo[memoKey{f.Ingress, fc, int16(f.DSCP)}]
		}
		if ok {
			s := *prev
			s.Flow, s.shared = f, true
			return &s
		}
	}

	sc := &e.scratch
	sc.reset(e.net)
	zero := m.Zero()
	delivered, inFlight := zero, zero

	// The pseudo incoming link l_R of Algorithm 1: 100% of the flow at
	// the ingress router, gated on the ingress being alive. Traffic that
	// cannot even enter a dead ingress is counted as dropped.
	ingressUp := fv.RouterUp(f.Ingress)
	dropped := fv.Reduce(m.Not(ingressUp))
	front := append(sc.front[:0], cell{router: f.Ingress, omega: ingressUp})
	next := sc.next[:0]

	iter, sensitive := 0, false
	for len(front) > 0 && iter < e.maxIter {
		iter++
		for i := range front {
			in := &front[i]
			st := e.stepFor(in.router, fc, f.DSCP, in.stack)
			sensitive = sensitive || st.dscpSensitive
			if st.delivered != zero {
				delivered = fv.ReduceMulAdd(delivered, in.omega, st.delivered)
			}
			if st.dropped != zero {
				dropped = fv.ReduceMulAdd(dropped, in.omega, st.dropped)
			}
			for j := range st.outs {
				o := &st.outs[j]
				t := fv.ReduceMul(in.omega, o.frac)
				if t == zero {
					continue
				}
				if prev := sc.linkAcc[o.link]; prev != nil {
					sc.linkAcc[o.link] = fv.ReduceAdd(prev, t)
				} else {
					sc.linkAcc[o.link] = t
					sc.touched = append(sc.touched, o.link)
				}
				at := sc.cellAt[o.to]
				for at != 0 && next[at-1].stack != o.stack {
					at = next[at-1].same
				}
				if at != 0 {
					next[at-1].omega = fv.ReduceAdd(next[at-1].omega, t)
				} else {
					next = append(next, cell{router: o.to, stack: o.stack, same: sc.cellAt[o.to], omega: t})
					sc.cellAt[o.to] = int32(len(next))
				}
			}
		}
		for i := range next {
			sc.cellAt[next[i].router] = 0
		}
		slices.SortFunc(next, e.compareCells)
		front, next = next, front[:0]
	}
	for i := range front {
		inFlight = fv.ReduceAdd(inFlight, front[i].omega)
	}
	sc.front, sc.next = front, next // keep what they grew to

	res := &FlowSTF{
		Flow:       f,
		Links:      make([]LinkFrac, len(sc.touched)),
		Delivered:  delivered,
		Dropped:    dropped,
		InFlight:   inFlight,
		Iterations: iter,
	}
	slices.Sort(sc.touched)
	for i, l := range sc.touched {
		res.Links[i] = LinkFrac{Link: l, W: sc.linkAcc[l]}
	}
	if share {
		key := memoKey{f.Ingress, fc, anyDSCP}
		if sensitive {
			key.dscp = int16(f.DSCP)
		}
		e.memo[key] = res
	}
	e.count.stepsShared.Add(int64(e.stepHits))
	e.stepHits = 0
	return res
}
