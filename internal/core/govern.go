package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// installGovernance arms a manager with the engine's context poll and
// node budget. Every manager the pipeline creates — the primary, each
// execution shard's, each link-check shard's — goes through here, so a
// cancel or breach unwinds no matter which manager is doing the work.
func installGovernance(m *mtbdd.Manager, opts Options) {
	if ctx := opts.Ctx; ctx != nil {
		m.SetInterrupt(func() error { return govern.Check(ctx) })
	}
	if opts.NodeBudget > 0 {
		m.SetNodeBudget(opts.NodeBudget)
	}
}

// SetContext re-arms a finished verifier for a check under ctx (nil: none):
// the ladder's polls, the manager's interrupt hook and the governance every
// check shard is created with all follow the verifier's context, and the one
// it was built under may be long expired. Any number of checks — Run, Check —
// can follow one another on a verifier this way, each under its own.
func (v *Verifier) SetContext(ctx context.Context) {
	v.e.opts.Ctx = ctx
	var poll func() error
	if ctx != nil {
		poll = func() error { return govern.Check(ctx) }
	}
	v.e.m.SetInterrupt(poll)
}

// contained runs fn with full panic containment: an MTBDD operation
// abort becomes its typed error, and any other panic becomes an error
// carrying the panic value and stack instead of crashing the process.
// It is the boundary of every pool worker and of every governed step (the
// ladder), so a panic in a shard's or a compose domain's goroutine
// surfaces as that goroutine's error, not as the end of the process.
func contained(fn func()) (err error) {
	defer func() {
		if r := recover(); r == nil {
			return
		} else if e := mtbdd.AbortError(r); e != nil {
			err = e
		} else {
			err = fmt.Errorf("core: worker panic: %v\n%s", r, debug.Stack())
		}
	}()
	fn()
	return nil
}

// ladder is the one budget ladder every governed step — a flow execution,
// a sealed list's unsealing, a property check on the primary or on a shard —
// runs through (DESIGN.md §10):
//
//  1. poll the context, then run attempt contained;
//  2. on a node-budget breach, collect m keeping only roots() and retry
//     once;
//  3. a breach the collection did not relieve is the caller's to answer
//     when the policy is BudgetDegrade: degrade is set and err carries the
//     breach, and the caller applies its own response (concrete fallback
//     STF, link left unchecked).
//
// Cancellation, a breach under BudgetFail and every non-budget failure
// come back as a plain error. attempt must be idempotent: it reruns on
// retry.
func ladder(opts Options, m *mtbdd.Manager, roots func() []*mtbdd.Node, attempt func()) (degrade bool, err error) {
	if err := govern.Check(opts.Ctx); err != nil {
		return false, err
	}
	err = contained(attempt)
	if errors.Is(err, govern.ErrNodeBudget) {
		opts.Obs.Counter("govern.budget_gc_retries").Inc()
		m.GC(roots())
		err = contained(attempt)
	}
	return errors.Is(err, govern.ErrNodeBudget) && opts.OnBudget == BudgetDegrade, err
}

// ladder runs attempt through the budget ladder on the engine's manager;
// a collection keeps the engine caches and the finished STFs in done.
func (e *Engine) ladder(done []*FlowSTF, attempt func()) (degrade bool, err error) {
	return ladder(e.opts, e.m, func() []*mtbdd.Node { return e.roots(stfRoots(nil, done)) }, attempt)
}

// buildGoverned builds flow f's STF in the engine's manager through the
// budget ladder — build followed by the engine's managed GC is the attempt;
// the degrade response rebuilds the flow by bounded concrete enumeration
// (concreteFallbackSTF) and marks it Degraded. done lists the engine's
// already-built STFs, the GC roots that must survive a collection.
func (e *Engine) buildGoverned(f topo.Flow, done []*FlowSTF, build func() *FlowSTF) (*FlowSTF, error) {
	var s *FlowSTF
	degrade, err := e.ladder(done, func() {
		s = build()
		e.maybeGC(done, stfRoots(nil, []*FlowSTF{s}))
	})
	if degrade {
		return e.concreteFallbackSTF(f, err)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// testExecHook, when non-nil, runs inside every governed flow execution,
// before the flow executes. It is a test seam: injecting a panic here
// exercises containment on every execution path without corrupting any
// real state.
var testExecHook func(topo.Flow)

// ExecuteGoverned runs one flow's symbolic execution through the budget
// ladder. Exported for the compositional coordinator, which executes class
// representatives on per-domain engines outside any Verifier.
func (e *Engine) ExecuteGoverned(f topo.Flow, done []*FlowSTF) (*FlowSTF, error) {
	return e.buildGoverned(f, done, func() *FlowSTF {
		if testExecHook != nil {
			testExecHook(f)
		}
		return e.ExecuteFlow(f)
	})
}
