// Global-equivalence classes (§6), the unit of execution on every path:
// classifyFlows groups the input up front, one representative per class is
// executed, and the verdict/STF is shared by every member — the summed
// volume fans the result out at aggregation time. The shard pool
// (parallel.go) takes the classes in this order, a chunk at a time.
package core

import (
	"net/netip"

	"github.com/yu-verify/yu/internal/topo"
)

// flowClass is one global-equivalence class of input flows: every member
// has the same (ingress, destination prefix class, DSCP), so it forwards
// identically in every failure scenario.
type flowClass struct {
	// rep is the executed representative, carrying the class's summed
	// volume. With global equivalence disabled each class has exactly
	// one member and rep is the flow itself.
	rep topo.Flow
	// members counts the input flows merged into this class.
	members int
}

// classifyFlows applies global flow equivalence (§6) and returns the
// classes in first-seen order — the deterministic execution order shared
// by the sequential and parallel pipelines — plus the per-input-flow
// class index (classOf[i] is flows[i]'s class), through which verdicts
// and STFs fan back out to every member. When the optimization is
// disabled every flow is its own class (no merging, same order).
func classifyFlows(e *Engine, flows []topo.Flow) (classes []flowClass, classOf []int) {
	return classifyWith(e.classifier, e.opts.DisableGlobalEquiv, flows)
}

// classifyWith is classifyFlows over an explicit classifier — the shared
// core of the engine-attached path and the standalone GlobalClasses
// helper, so the two can never drift apart.
func classifyWith(cl *classifier, disable bool, flows []topo.Flow) (classes []flowClass, classOf []int) {
	classes = make([]flowClass, 0, len(flows))
	classOf = make([]int, len(flows))
	if disable {
		for i, f := range flows {
			classOf[i] = i
			classes = append(classes, flowClass{rep: f, members: 1})
		}
		return classes, classOf
	}
	type gkey struct {
		ingress topo.RouterID
		class   int
		dscp    uint8
	}
	groups := make(map[gkey]int)
	for fi, f := range flows {
		k := gkey{f.Ingress, cl.classOf(f.Dst), f.DSCP}
		if i, ok := groups[k]; ok {
			classes[i].rep.Gbps += f.Gbps
			classes[i].members++
			classOf[fi] = i
		} else {
			groups[k] = len(classes)
			classOf[fi] = len(classes)
			classes = append(classes, flowClass{rep: f, members: 1})
		}
	}
	return classes, classOf
}

// GlobalClasses groups flows into global-equivalence classes over an
// explicit prefix set, without an engine: the compositional coordinator
// (internal/compose) uses it to decide, before any symbolic execution,
// which class representatives exist and which domain each belongs to.
// Built with the same classifier and grouping code as the engine path, so
// for the same prefix set the class list and order are identical to what
// NewAssembledVerifier computes on the check engine. The network argument
// is unused; benchmark/ pins the signature.
func GlobalClasses(_ *topo.Network, prefixes []netip.Prefix, flows []topo.Flow, disableGlobalEquiv bool) (reps []topo.Flow, classOf []int) {
	classes, classOf := classifyWith(newClassifier(nil, prefixes), disableGlobalEquiv, flows)
	reps = make([]topo.Flow, len(classes))
	for i := range classes {
		reps[i] = classes[i].rep
	}
	return reps, classOf
}

// dedupHits counts the flows merged away by global equivalence — input
// flows that share a previously seen class.
func dedupHits(classes []flowClass) int {
	n := 0
	for i := range classes {
		n += classes[i].members - 1
	}
	return n
}

// SchedStats summarizes one parallel execution's scheduling: how many
// goroutines actually ran (never more than there was work for) and how the
// classes were cut up. The sequential path reports Workers == 1 and no
// chunks.
type SchedStats struct {
	// Workers is the number of execution goroutines spawned.
	Workers int
	// Chunks is the number of class-order chunks the pool handed out.
	Chunks int
	// Classes is the number of equivalence classes (executed
	// representatives).
	Classes int
	// Steals is always 0: workers share one cursor, nothing is owned and
	// nothing stolen. The field stays until benchmark/ stops reading it.
	Steals int
	// DedupHits counts input flows merged away by global equivalence.
	DedupHits int
}

// SchedStats returns the scheduling summary of this verifier's execution
// phase.
func (v *Verifier) SchedStats() SchedStats { return v.sched }
