package core

import (
	"net/netip"

	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// STFCache lets a caller reuse symbolic execution results across
// verification runs. The verifier consults it once per
// global-equivalence class: Lookup before executing the class
// representative, Store after a successful execution.
//
// The contract the incremental daemon (internal/serve) builds on:
//
//   - A Lookup hit must return a *FlowSTF whose MTBDDs live in e's
//     manager and encode exactly what executing rep would have built —
//     hash-consing then makes the hit indistinguishable from a real
//     execution, so reports stay byte-identical. The cache owns the
//     soundness argument (typically by keying on a content hash of every
//     route-sim input the execution reads).
//   - The returned STF's Flow field must be rep itself (the caller's
//     representative carries this run's summed volume), not the flow the
//     cached result was first computed from.
//   - Cache-served classes still count toward Report.FlowsExecuted; they
//     are not counted in the exec.flows_executed obs counter, which keeps
//     measuring real symbolic executions.
type STFCache interface {
	Lookup(e *Engine, rep topo.Flow) (*FlowSTF, bool)
	Store(e *Engine, rep topo.Flow, stf *FlowSTF)
}

// RouteSim exposes the route-simulation result the engine executes over —
// the input surface an STFCache fingerprints.
func (e *Engine) RouteSim() *routesim.Result { return e.rs }

// ClassPrefixes returns the configured prefixes matching dst, most
// specific first. The list is the identity of dst's prefix class: two
// destinations with equal lists share every forwarding decision, and a
// flow's symbolic execution reads only the RIB entries and statics of
// these prefixes (plus the global IGP/SR state).
func (e *Engine) ClassPrefixes(dst netip.Addr) []netip.Prefix {
	return e.classifier.matchedPrefixes(e.classifier.classOf(dst))
}
