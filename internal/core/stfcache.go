package core

import (
	"math"
	"net/netip"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// STFCache carries a run's results to later runs by the fingerprint of their
// inputs (DESIGN.md §14): the STFs of its classes, the results of its checks
// and the loads they summed. It only stores. The verifier derives every key
// (classKeyer, loadKey, planKey), reads each stored list it hits into its own
// manager — once a stage, inside the governed step that first reads it
// (session) — and hands over, sealed, what it built: a carrier never derives
// a key and never builds a node in the engine's manager.
//
// The contract the incremental daemon (internal/serve) builds on:
//
//   - CarriedSTF is where an earlier run sealed the STF of the class whose
//     key is key: STF i of l. A carried class is indistinguishable from an
//     execution — hash-consing makes its replayed nodes the ones executing
//     it builds — so reports stay byte-identical, and it counts toward
//     Report.FlowsExecuted but not the exec.flows_executed counter, which
//     keeps measuring real executions. An entry whose variables or links do
//     not fit the engine is executed instead, never replayed.
//   - CarrySTFs hands over what the build did with STFs, however it ended:
//     carried are the keys it read off stored lists, and l — nil when it
//     executed none — seals the classes it executed, STF i under keys[i], in
//     class order.
//   - CarriedCheck and CarryChecks do the same for the results of a build's
//     Check, and CarriedLoad and CarryLoads for the loads every Check sums
//     (loads.go). A verifier keeps its carrier through Trim, for the loads of
//     the checks to come, so once CarrySTFs has run the carrier must hold
//     nothing only the build needs.
type STFCache interface {
	CarriedSTF(key routesim.Fingerprint) (l *SealedSTFs, i int, ok bool)
	CarrySTFs(carried, keys []routesim.Fingerprint, l *SealedSTFs)
	// CarriedCheck is the result an earlier complete build recorded under
	// key (planKey).
	CarriedCheck(key routesim.Fingerprint) (PlanResult, bool)
	// CarryChecks hands over the keyed results of a build's Check that ran
	// to the end with no error: carried of its plans were read off an
	// earlier build's results, run were checked.
	CarryChecks(results map[routesim.Fingerprint]PlanResult, carried, run int)
	// CarriedLoad is where an earlier Check sealed the load key
	// fingerprints (loadKey): load i of l.
	CarriedLoad(key routesim.Fingerprint) (l *SealedLoads, i int, ok bool)
	// CarryLoads hands over what a Check did with loads, however it ended:
	// carried are the keys it read off stored lists, and l — nil when it
	// built none — seals the loads it built, load i under keys[i].
	CarryLoads(carried, keys []routesim.Fingerprint, l *SealedLoads)
}

// classKeyer derives the keys of one build's classes (assemble): the
// identity of a class's execution inputs, so that two classes with equal
// keys, in any runs, have the same STF. A key is the run-global part — the
// topology key (router and link identity, names pinning indices, the failure
// model, and so the IS-IS state, which is a function of them) and the
// complete guarded SR state — then the class identity (ingress, DSCP,
// matched prefix list) and, through each matched prefix's fingerprint,
// every router's RIB candidates and statics for that prefix
// (routesim.Result.HashPrefix). The run-global part is computed once a
// build, and each matched prefix's fingerprint once however many classes
// match it (counted in exec.prefix_fingerprints).
type classKeyer struct {
	e        *Engine
	h        *mtbdd.Hasher
	global   routesim.Fingerprint
	prefixes map[netip.Prefix]routesim.Fingerprint
}

func newClassKeyer(e *Engine) *classKeyer {
	ck := &classKeyer{e: e, h: mtbdd.NewHasher(e.m), global: routesim.Fingerprint(e.fv.Key()),
		prefixes: make(map[netip.Prefix]routesim.Fingerprint)}
	ck.global.Add(e.rs.HashSR(ck.h))
	return ck
}

// key is the key of the class rep represents.
func (ck *classKeyer) key(rep topo.Flow) routesim.Fingerprint {
	e := ck.e
	k := ck.global
	k.Str(e.net.Router(rep.Ingress).Name)
	k.U64(uint64(rep.DSCP))
	prefixes := e.classifier.matchedPrefixes(e.classifier.classOf(rep.Dst))
	k.U64(uint64(len(prefixes)))
	for _, pfx := range prefixes {
		fp, ok := ck.prefixes[pfx]
		if !ok {
			fp = e.rs.HashPrefix(pfx, ck.h)
			ck.prefixes[pfx] = fp
			e.count.prefixFPs.Inc()
		}
		k.Prefix(pfx)
		k.Add(fp)
	}
	return k
}

// checkBase fingerprints what every plan of the run shares: the variable
// layout (the topology key), the failure budgets and the link-local
// equivalence switch.
//
// A plan's outcome is a function of the plan, the failure budgets and
// link-local equivalence switch, the variable layout, and — in STF order —
// each class it aggregates: its key, which fixes its STF and so its node on
// the link (or its delivered node), and the volume it contributes. Check
// fingerprints exactly these (planKey). Aggregate plans, over several links,
// are not keyed: they are always run, and never carried.
func (v *Verifier) checkBase() routesim.Fingerprint {
	k := routesim.Fingerprint(v.e.fv.Key())
	k.U64(uint64(int64(v.e.fv.K)))
	k.U64(uint64(int64(v.e.opts.CheckK)))
	k.Bool(v.e.opts.DisableLinkLocalEquiv)
	return k
}

// planKey fingerprints a plan's inputs: its load's (loadKey), then the plan's
// checks. ok is false for a plan kind that is not keyed.
func (v *Verifier) planKey(base routesim.Fingerprint, p Plan) (k routesim.Fingerprint, ok bool) {
	if k, ok = v.loadKey(base, p.Subject); !ok {
		return k, false
	}
	k.Bool(p.pruned)
	k.U64(uint64(len(p.Checks)))
	for _, c := range p.Checks {
		k.U64(math.Float64bits(c.Min))
		k.U64(math.Float64bits(c.Max))
		k.Bool(c.Overload)
		k.U64(uint64(int64(c.CondVar)))
	}
	return k, true
}
