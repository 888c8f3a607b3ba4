// Multi-worker verification: one shard pool that execution and the check
// stage both pull from (DESIGN.md §8).
//
// mtbdd.Manager is single-threaded by design, so parallelism comes from
// partitioning the work across private managers instead of locking one:
//
//   - Pool: up to `workers` goroutines, never more than there are units,
//     each with a private governed Manager + FailVars (NewFailVars is
//     deterministic, so every shard has the identical variable order), taking
//     unit indices off one atomic cursor until they run out, the pool is
//     stopped, or the worker bows out.
//   - Execution: the unit is a chunk of consecutive global-equivalence
//     classes (§6, sched.go). Each worker clones the guarded RIBs from a
//     shared read-only snapshot (routesim.ImportBase), runs ExecuteGoverned
//     on its chunk's representatives and seals the chunk's STFs (assemble.go);
//     the primary manager unseals the chunks in class order (assemble) —
//     hash-consing makes equal functions from different workers collapse to
//     the same *Node.
//   - Checking: the unit is a Plan (scan.go); each worker unseals the
//     verifier's STFs once, and results land in plan-order slots.
//
// Slots make every result independent of which worker produced it and when,
// so reports are byte-identical at every worker count. workers <= 1 bypasses
// all of this: execution and checks run on the primary manager.
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

// pool hands the units 0..units-1 out to min(workers, units) goroutines, one
// atomic cursor between them. Each builds a private governed manager named
// name.N with the engine's variable order, calls setup once for its per-unit
// function, and runs units until none are left. A worker runs contained: a
// panic or an MTBDD abort anywhere in it is that worker's error. A node-budget
// breach under BudgetDegrade makes the worker bow out — there are no owned
// queues, so what it leaves goes to the others, or stays undone for the
// caller to see in its slots; any other error stops the pool and the first
// one is returned. The engine's manager is only read (node fields are
// immutable), which is safe while the caller blocks here.
func (e *Engine) pool(workers int, name string, units int, setup func(w int, fv *routesim.FailVars) func(unit int) error) error {
	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < min(workers, units); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			cerr := contained(func() {
				m := mtbdd.New()
				defer RecordManager(e.opts.Obs, name+"."+strconv.Itoa(w), m)
				// Governance is armed before anything is built in m.
				installGovernance(m, e.opts)
				run := setup(w, routesim.NewFailVars(m, e.net, e.fv.Mode, e.fv.K))
				for err == nil && !stop.Load() {
					u := int(cursor.Add(1)) - 1
					if u >= units {
						return
					}
					err = run(u)
				}
			})
			if cerr != nil {
				err = cerr
			}
			if err == nil || errors.Is(err, govern.ErrNodeBudget) && e.opts.OnBudget == BudgetDegrade {
				return
			}
			stop.Store(true)
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return firstErr
}

// NewParallelVerifier executes the flows like NewVerifier but on the shard
// pool, and returns a Verifier whose checks run on it too. workers <= 1 falls
// back to the sequential NewVerifier.
//
// The parallel and sequential paths produce identical Reports: execution
// is deterministic per class, results land in a slot array indexed by
// class (so scheduling order cannot reorder them), the merge restores
// canonical node identity in the primary manager in class order, and
// checking accumulates results in plan order.
func NewParallelVerifier(e *Engine, flows []topo.Flow, workers int) *Verifier {
	if workers <= 1 {
		return NewVerifier(e, flows)
	}
	v := newVerifier(e, flows, workers)
	sealed, at, err := v.executeSharded()
	if err != nil {
		v.err = err
		return v
	}
	mergeSpan := e.opts.Obs.Span("execute/merge")
	defer mergeSpan.End()
	v.assemble(sealed, at)
	return v
}

// chunking cuts n classes into chunks of consecutive class indices, about
// four a worker: few enough to amortize the cursor, enough that a worker that
// drew cheap classes comes back for more.
func chunking(n, workers int) (spawn, size, chunks int) {
	if n == 0 {
		return 0, 0, 0
	}
	spawn = min(workers, n)
	size = (n + 4*spawn - 1) / (4 * spawn)
	return spawn, size, (n + size - 1) / size
}

// executeSharded executes every class on the shard pool, in class-order
// chunks, and returns for assemble one sealed list per chunk — each worker
// seals a chunk's STFs when it has executed them all — and the classes each
// list holds. Per-flow budget breaches are handled inside ExecuteGoverned
// (GC + retry + concrete fallback); an error returned here is fatal to the
// run: a cancellation, a contained panic, a breach under the fail policy. A
// worker that bowed out (a breach while replaying the guard snapshot, under
// the degrade policy) leaves its chunks to the others; a chunk no worker
// finished stays nil, and assemble executes its classes on the primary engine
// through the standard ladder.
func (v *Verifier) executeSharded() ([]*SealedSTFs, [][]int, error) {
	e, classes := v.e, v.classes
	obsR := e.opts.Obs
	spawn, size, chunks := chunking(len(classes), v.workers)
	v.sched.Workers, v.sched.Chunks = spawn, chunks
	if chunks == 0 {
		return nil, nil, nil
	}

	// Divide the managed-GC budget among the workers so peak memory stays
	// in the same ballpark as a sequential run.
	wopts := e.opts
	if wopts.GCThreshold <= 0 {
		wopts.GCThreshold = defaultGCThreshold
	}
	wopts.GCThreshold = max(wopts.GCThreshold/spawn, 1<<18)

	// The shared read-only guard snapshot: built once here, replayed
	// linearly by every worker into its own arena.
	base := e.rs.NewImportBase()
	sealed, at := make([]*SealedSTFs, chunks), make([][]int, chunks)
	err := e.pool(spawn, "exec-shard", chunks, func(w int, fv *routesim.FailVars) func(int) error {
		workerC := execCounters{
			flows:  obsR.Counter(workerCounter(w, "flows_executed")),
			shared: obsR.Counter(workerCounter(w, "classes_shared")),
		}
		busyT := obsR.Timer(workerCounter(w, "busy"))
		eng := NewEngine(base.ImportInto(fv), wopts)
		return func(chunk int) error {
			start := time.Now()
			defer func() { busyT.Add(time.Since(start)) }()
			// The chunk's STFs are a collection's roots until they are sealed.
			var done []*FlowSTF
			for ci := chunk * size; ci < min((chunk+1)*size, len(classes)); ci++ {
				s, err := eng.ExecuteGoverned(classes[ci].rep, done)
				if err != nil {
					return err
				}
				done = append(done, s)
				at[chunk] = append(at[chunk], ci)
				workerC.class(s)
			}
			sealed[chunk] = SealSTFs(done)
			return nil
		}
	})
	obsR.Counter("sched.chunks").Add(int64(chunks))
	obsR.Counter("sched.workers_spawned").Add(int64(spawn))
	return sealed, at, err
}
