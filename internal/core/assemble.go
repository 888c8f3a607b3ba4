// Check-engine assembly for compositional verification (DESIGN.md §17).
//
// The compositional pipeline (internal/compose) executes equivalence
// classes inside per-domain managers and hands the finished STFs — links
// already translated to global DirLinkIDs, nodes still owned by the
// domain managers — to NewAssembledVerifier, which rebuilds them in the
// check engine's manager in class order. Hash-consing restores canonical
// node identity, so the assembled Verifier's aggregation, scans, and
// reports are indistinguishable from a monolithic run's: an imported STF
// and a natively executed STF of the same function are the same *Node.
package core

import (
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// NewAssembledVerifier builds a Verifier from pre-executed class STFs.
//
// flows is the full input flow list; it is classified on e exactly as
// NewVerifier would (e must therefore carry the same ClassifyPrefixes the
// coordinator used for GlobalClasses). pre is the per-class slot array in
// that class order: pre[i] non-nil is class i's finished STF with global
// link IDs (its nodes may live in any manager — they are imported), and
// pre[i] == nil marks a class beyond the domains' precision limit, which
// is executed natively on e through the standard governed ladder (e's
// route-sim result must then cover the whole network).
func NewAssembledVerifier(e *Engine, flows []topo.Flow, workers int, pre []*FlowSTF) *Verifier {
	if workers < 1 {
		workers = 1
	}
	v := newVerifier(e, flows, workers)
	if len(pre) != len(v.classes) {
		// The coordinator classified with a different prefix set than the
		// engine — a programming error, not an input condition.
		panic("core: assembled STF slot array does not match the class count")
	}
	span := e.opts.Obs.Span("execute/assemble")
	defer span.End()
	v.assemble(pre)
	return v
}

// TranslateSTF re-keys a domain-local FlowSTF's link map to global
// directed-link IDs via toGlobal (indexed by subnet LinkID), leaving the
// nodes untouched in their owning manager, and stamps the global view of
// the executed flow (the domain ran it under a subnet-local ingress ID).
// The result is what NewAssembledVerifier expects in a pre slot.
func TranslateSTF(s *FlowSTF, toGlobal []topo.LinkID, flow topo.Flow) *FlowSTF {
	out := &FlowSTF{
		Flow:       flow,
		Links:      make(map[topo.DirLinkID]*mtbdd.Node, len(s.Links)),
		Delivered:  s.Delivered,
		Dropped:    s.Dropped,
		InFlight:   s.InFlight,
		Iterations: s.Iterations,
		Degraded:   s.Degraded,
		shared:     s.shared,
	}
	for l, w := range s.Links {
		gl := toGlobal[l.Link()]
		out.Links[topo.MakeDirLinkID(gl, l.Dir())] = w
	}
	return out
}
