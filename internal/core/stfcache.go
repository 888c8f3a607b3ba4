package core

import (
	"math"
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

// CheckCarrier carries check results from one run to the next. A run asserts
// it on Options.STFCache, the way route simulation asserts routesim.Carrier
// there, and re-runs only the plans whose inputs moved (DESIGN.md §14).
//
// A plan's outcome is a function of the plan, the failure budgets and
// link-local equivalence switch, the variable layout, and — in STF order —
// each class it aggregates: its key, which fixes its STF and so its node on
// the link (or its delivered node), and the volume it contributes. Check
// fingerprints exactly these (planKey). Aggregate plans, over several links,
// are not keyed: they are always run, and never carried.
type CheckCarrier interface {
	// ClassKey is the identity the cache gave class rep in this run, asked
	// right after the class was looked up (and, on a miss, stored): two
	// classes with equal keys, in any runs, have the same STF.
	ClassKey(e *Engine, rep topo.Flow) routesim.Fingerprint
	// CarriedCheck is the result an earlier complete run recorded under key.
	CarriedCheck(key routesim.Fingerprint) (PlanResult, bool)
	// CarryChecks hands over the keyed results of a Check that ran to the
	// end with no error: carried of its plans were read off an earlier run's
	// results, run were checked.
	CarryChecks(results map[routesim.Fingerprint]PlanResult, carried, run int)
}

// checkBase fingerprints what every plan of the run shares: the variable
// layout (the topology key), the failure budgets and the link-local
// equivalence switch.
func (v *Verifier) checkBase() routesim.Fingerprint {
	k := routesim.Fingerprint(v.e.fv.Key())
	k.U64(uint64(int64(v.e.fv.K)))
	k.U64(uint64(int64(v.e.opts.CheckK)))
	k.Bool(v.e.opts.DisableLinkLocalEquiv)
	return k
}

// planKey fingerprints a plan's inputs on top of base: the plan itself, then
// the classes it aggregates in STF order — a link's, each with its summed
// volume (Verifier.classKeys), or a delivered bound's, each with its volume
// inside the prefix too. ok is false for a plan kind that is not keyed.
func (v *Verifier) planKey(base routesim.Fingerprint, p Plan) (k routesim.Fingerprint, ok bool) {
	s := p.Subject
	if len(s.Links) > 0 || (!s.Prefix.IsValid() && (s.Link < 0 || int(s.Link) >= len(v.linkIdx))) {
		return k, false
	}
	k = base
	k.Bool(p.pruned)
	k.U64(uint64(len(p.Checks)))
	for _, c := range p.Checks {
		k.U64(math.Float64bits(c.Min))
		k.U64(math.Float64bits(c.Max))
		k.Bool(c.Overload)
		k.U64(uint64(int64(c.CondVar)))
	}
	if s.Prefix.IsValid() {
		k.Prefix(s.Prefix)
		vols, inside := v.deliveredVolumes(s.Prefix)
		n := 0
		for ci, in := range inside {
			if in {
				k.Add(v.classKeys[ci])
				k.U64(math.Float64bits(vols[ci]))
				n++
			}
		}
		k.U64(uint64(n))
		return k, true
	}
	k.U64(uint64(s.Link))
	refs := v.linkIdx[s.Link]
	k.U64(uint64(len(refs)))
	for _, ref := range refs {
		k.Add(v.classKeys[ref.stf])
	}
	return k, true
}
