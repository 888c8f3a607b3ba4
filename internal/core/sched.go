// Equivalence-class scheduling for the parallel pipeline (DESIGN.md §13).
//
// The unit of parallel work is a global-equivalence class (§6), not a
// flow: classifyFlows groups the input up front, one representative per
// class is executed, and the verdict/STF is shared by every member —
// the summed volume fans the result out at aggregation time. Classes are
// then ordered and chunked by a topology-derived cost heuristic so the
// expensive work starts first and the work-stealing deques in parallel.go
// stay balanced.
package core

import (
	"net/netip"
	"sort"

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
	// cost is the scheduling weight (see classCosts).
	cost float64
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

// classCosts assigns each class its scheduling weight, in place: 1 + the
// hop distance from the class's ingress to the nearest router that
// delivers its destination, a proxy for how much network the symbolic
// wavefront must traverse. It needs one BFS per distinct ingress (cached)
// and no MTBDD work.
func classCosts(e *Engine, classes []flowClass) {
	distFrom := make(map[topo.RouterID][]int)
	deliverers := make(map[int][]topo.RouterID)
	for i := range classes {
		f := classes[i].rep
		cls := e.classifier.classOf(f.Dst)
		dests, ok := deliverers[cls]
		if !ok {
			dests = e.deliveringRouters(cls)
			deliverers[cls] = dests
		}
		dist, ok := distFrom[f.Ingress]
		if !ok {
			dist = bfsHops(e.net, f.Ingress)
			distFrom[f.Ingress] = dist
		}
		best := -1
		for _, r := range dests {
			if d := dist[r]; d >= 0 && (best < 0 || d < best) {
				best = d
			}
		}
		if best < 0 {
			// Unresolvable destination: assume a full traversal.
			best = e.net.Diameter()
		}
		classes[i].cost = float64(1 + best)
	}
}

// deliveringRouters lists the routers that deliver traffic of a prefix
// class locally: any BGP Deliver candidate or static route for one of
// the class's matched prefixes.
func (e *Engine) deliveringRouters(cls int) []topo.RouterID {
	var out []topo.RouterID
	matched := e.classifier.matchedPrefixes(cls)
	for ri := range e.rs.BGP.RIBs {
		rib := e.rs.BGP.RIBs[ri]
		found := false
		for _, pfx := range matched {
			for _, c := range rib[pfx] {
				if c.Deliver {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			out = append(out, topo.RouterID(ri))
		}
	}
	return out
}

// bfsHops returns per-router hop distances from src over the directed
// adjacency (-1 = unreachable), ignoring failures — a static cost proxy.
func bfsHops(net *topo.Network, src topo.RouterID) []int {
	dist := make([]int, net.NumRouters())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []topo.RouterID{src}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for _, edge := range net.Out(r) {
			if dist[edge.To] < 0 {
				dist[edge.To] = dist[r] + 1
				queue = append(queue, edge.To)
			}
		}
	}
	return dist
}

// buildChunks orders the classes by descending cost (stable, so equal
// costs keep first-seen order) and packs them greedily into chunks of
// roughly totalCost/(4·spawn) each — about four chunks per worker, small
// enough for stealing to rebalance, large enough to amortize deque
// traffic. Returns the chunks as index slices into classes.
func buildChunks(classes []flowClass, spawn int) [][]int {
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return classes[order[a]].cost > classes[order[b]].cost
	})
	total := 0.0
	for i := range classes {
		total += classes[i].cost
	}
	target := total / float64(4*spawn)
	var chunks [][]int
	var cur []int
	acc := 0.0
	for _, ci := range order {
		cur = append(cur, ci)
		acc += classes[ci].cost
		if acc >= target {
			chunks = append(chunks, cur)
			cur, acc = nil, 0
		}
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// SchedStats summarizes one parallel execution's scheduling: how many
// goroutines actually ran (never more than there was work for), how the
// queue was shaped, and how work moved. The sequential path reports the
// zero value with Workers == 1.
type SchedStats struct {
	// Workers is the number of execution goroutines spawned.
	Workers int
	// Chunks is the number of work chunks enqueued.
	Chunks int
	// Classes is the number of equivalence classes (executed
	// representatives).
	Classes int
	// Steals counts chunks a worker took from another worker's deque.
	Steals int
	// DedupHits counts input flows merged away by global equivalence.
	DedupHits int
}

// SchedStats returns the scheduling summary of this verifier's execution
// phase.
func (v *Verifier) SchedStats() SchedStats { return v.sched }
