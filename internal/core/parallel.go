// Parallel verification pipeline: work-stealing symbolic execution over
// equivalence classes and concurrent per-link checking (DESIGN.md §13).
//
// mtbdd.Manager is single-threaded by design, so parallelism comes from
// partitioning the work across private managers instead of locking one:
//
//   - Scheduling: the input flows are grouped into global-equivalence
//     classes (§6, sched.go); one representative per class is the work
//     unit. Classes are ordered by a topology cost heuristic and packed
//     into chunks, dealt round-robin onto per-worker deques: owners pop
//     expensive chunks from the front, idle workers steal cheap ones
//     from the back.
//   - Execution: each worker builds its own Manager + FailVars
//     (NewFailVars is deterministic, so every shard has the identical
//     variable order), clones the guarded RIBs from a shared read-only
//     snapshot (routesim.ImportBase — the source DAG is walked once, each
//     worker pays only a linear replay into its own slab arena), and runs
//     ExecuteFlow with per-worker managed GC. ExecuteFlow iterates its
//     wavefront in sorted order, so a worker computes bit-for-bit the
//     same STF the sequential path would, regardless of which worker ran
//     it or in what order.
//   - Merge: the primary manager re-imports every class STF
//     (mtbdd.Import) in class order — a slot array keyed by class index
//     makes the accumulation order independent of scheduling, so reports
//     are byte-identical to the sequential path for every worker count.
//     Hash-consing makes equal functions from different workers collapse
//     to the same *Node, restoring the pointer-equality invariant the
//     §5.3 link-local equivalence grouping relies on.
//   - Checking: Run fans its check items out over a pool of shard
//     checkers (scan.go), each with a private Manager into which it imports
//     just the STFs of the subject at hand. Results are accumulated in item
//     order, so the Report is identical (modulo per-check Elapsed timings)
//     to a sequential run.
//
// workers <= 1 bypasses all of this: execution and checks run on the
// primary manager.
package core

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// testExecHook, when non-nil, runs before each sharded flow execution.
// It is a test seam: injecting a panic here exercises the worker
// containment path without corrupting any real state.
var testExecHook func(topo.Flow)

// chunkDeque is one worker's work queue of class-index chunks. The owner
// pops from the front (chunks arrive cost-descending, so the front is the
// most expensive remaining work); thieves take from the back, moving the
// cheapest chunks — the ones the owner would reach last. A mutex suffices:
// contention is per-chunk, not per-flow, and chunks are sized to amortize
// it (buildChunks).
type chunkDeque struct {
	mu     sync.Mutex
	chunks [][]int
}

func (d *chunkDeque) push(c []int) {
	d.mu.Lock()
	d.chunks = append(d.chunks, c)
	d.mu.Unlock()
}

func (d *chunkDeque) popFront() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.chunks) == 0 {
		return nil
	}
	c := d.chunks[0]
	d.chunks = d.chunks[1:]
	return c
}

func (d *chunkDeque) popBack() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.chunks)
	if n == 0 {
		return nil
	}
	c := d.chunks[n-1]
	d.chunks = d.chunks[:n-1]
	return c
}

func (d *chunkDeque) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chunks)
}

// NewParallelVerifier executes the flows like NewVerifier but schedules
// the symbolic execution across up to the given number of workers, and
// returns a Verifier whose Run fans its checks out over the same number of
// workers. workers <= 1 falls back to the sequential NewVerifier. At most
// one goroutine per work chunk is spawned — never an idle worker
// (SchedStats reports the actual count).
//
// The parallel and sequential paths produce identical Reports: execution
// is deterministic per class, results land in a slot array indexed by
// class (so scheduling order cannot reorder them), the merge restores
// canonical node identity in the primary manager in class order, and
// checking accumulates results in item order.
func NewParallelVerifier(e *Engine, flows []topo.Flow, workers int) *Verifier {
	if workers <= 1 {
		return NewVerifier(e, flows)
	}
	v := newVerifier(e, flows, workers)
	pre, err := v.executeSharded()
	if err != nil {
		v.err = err
		return v
	}
	mergeSpan := e.opts.Obs.Span("execute/merge")
	defer mergeSpan.End()
	v.assemble(pre)
	return v
}

// executeSharded executes every class on the work-stealing shard pool and
// returns the per-class slot array of shard-owned STFs for assemble to
// merge. Per-flow budget breaches are handled inside ExecuteGoverned
// (GC + retry + concrete fallback); an error returned here is fatal to the
// run: a cancellation, a contained panic, a breach under the fail policy.
func (v *Verifier) executeSharded() ([]*FlowSTF, error) {
	e, classes, workers := v.e, v.classes, v.workers
	obsR := e.opts.Obs
	v.sched.Workers = 0
	if len(classes) == 0 {
		return nil, nil
	}

	// Cost-ordered chunks, dealt round-robin onto per-worker deques.
	// Chunks are cost-descending, so round-robin approximates a
	// longest-processing-time-first assignment; stealing corrects the
	// rest at run time.
	classCosts(e, classes)
	spawn := workers
	if spawn > len(classes) {
		spawn = len(classes)
	}
	chunks := buildChunks(classes, spawn)
	if spawn > len(chunks) {
		spawn = len(chunks)
	}
	v.sched.Workers = spawn
	v.sched.Chunks = len(chunks)
	deques := make([]*chunkDeque, spawn)
	for w := range deques {
		deques[w] = &chunkDeque{}
	}
	for i, c := range chunks {
		deques[i%spawn].push(c)
	}
	depthHW := 0
	for _, d := range deques {
		if n := d.depth(); n > depthHW {
			depthHW = n
		}
	}

	// Divide the managed-GC budget among the workers so peak memory stays
	// in the same ballpark as a sequential run.
	wopts := e.opts
	if wopts.GCThreshold <= 0 {
		wopts.GCThreshold = defaultGCThreshold
	}
	wopts.GCThreshold /= spawn
	if wopts.GCThreshold < 1<<18 {
		wopts.GCThreshold = 1 << 18
	}

	// The shared read-only guard snapshot: built once here, replayed
	// linearly by every worker (copy-on-write — workers materialize nodes
	// only in their own arenas).
	base := e.rs.NewImportBase()

	stfs := make([]*FlowSTF, len(classes))
	workerErrs := make([]error, spawn)
	var steals atomic.Int64
	var stop atomic.Bool
	// next returns the worker's next chunk: its own deque front first,
	// then the back of the other deques (scanned from its right neighbor
	// so thieves spread instead of piling onto worker 0).
	next := func(w int) []int {
		if c := deques[w].popFront(); c != nil {
			return c
		}
		for off := 1; off < spawn; off++ {
			if c := deques[(w+off)%spawn].popBack(); c != nil {
				steals.Add(1)
				return c
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Private manager with the same variable order; guards are
			// replayed from the shared snapshot, never shared as nodes.
			// The primary manager is only read (node fields are
			// immutable), which is safe while the main goroutine blocks
			// in Wait. Governance must be armed before the import —
			// NewEngine would install it only after the import has
			// already run ungoverned.
			var werr error
			workerC := execCounters{
				flows:  obsR.Counter(workerCounter(w, "flows_executed")),
				shared: obsR.Counter(workerCounter(w, "classes_shared")),
			}
			busyT := obsR.Timer(workerCounter(w, "busy"))
			cerr := contained(func() {
				mW := mtbdd.New()
				defer RecordManager(obsR, "exec-shard."+strconv.Itoa(w), mW)
				installGovernance(mW, wopts)
				fvW := routesim.NewFailVars(mW, e.net, e.fv.Mode, e.fv.K)
				engW := NewEngine(base.ImportInto(fvW), wopts)
				var local []*FlowSTF
				for !stop.Load() {
					chunk := next(w)
					if chunk == nil {
						return
					}
					start := time.Now()
					for _, ci := range chunk {
						if testExecHook != nil {
							testExecHook(classes[ci].rep)
						}
						s, err := engW.ExecuteGoverned(classes[ci].rep, local)
						if err != nil {
							werr = err
							busyT.Add(time.Since(start))
							return
						}
						local = append(local, s)
						stfs[ci] = s
						workerC.class(s)
					}
					busyT.Add(time.Since(start))
				}
			})
			if cerr != nil {
				werr = cerr
			}
			if werr != nil {
				workerErrs[w] = werr
				// A budget breach under the degrade policy is local: this
				// worker bows out and its queued chunks remain stealable.
				// Anything else is fatal to the run — stop the pool.
				if !(errors.Is(werr, govern.ErrNodeBudget) && e.opts.OnBudget == BudgetDegrade) {
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	v.sched.Steals = int(steals.Load())
	obsR.Counter("sched.steals").Add(steals.Load())
	obsR.Counter("sched.chunks").Add(int64(len(chunks)))
	obsR.Counter("sched.workers_spawned").Add(int64(spawn))
	obsR.Counter("sched.queue_depth_hw").Add(int64(depthHW))

	// Worker triage. A budget breach under the degrade policy only cost
	// that worker its remaining chunks (typically a breach during setup,
	// replaying the guard snapshot): any class left unexecuted — nobody
	// stole it in time — stays a nil slot, which assemble executes on the
	// primary engine through the standard ladder. Anything else is fatal.
	for _, werr := range workerErrs {
		if werr != nil && !(errors.Is(werr, govern.ErrNodeBudget) && e.opts.OnBudget == BudgetDegrade) {
			return nil, werr
		}
	}
	return stfs, nil
}

// importSTF rebuilds a shard-owned FlowSTF in the manager m.
func importSTF(m *mtbdd.Manager, s *FlowSTF) *FlowSTF {
	out := &FlowSTF{
		Flow:       s.Flow,
		Links:      make(map[topo.DirLinkID]*mtbdd.Node, len(s.Links)),
		Delivered:  m.Import(s.Delivered),
		Dropped:    m.Import(s.Dropped),
		InFlight:   m.Import(s.InFlight),
		Iterations: s.Iterations,
		Degraded:   s.Degraded,
		shared:     s.shared,
	}
	for l, w := range s.Links {
		out.Links[l] = m.Import(w)
	}
	return out
}
