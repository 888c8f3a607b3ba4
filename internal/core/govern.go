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

// installGovernance arms an engine's manager with the engine's context poll
// and node budget, so a cancel or breach unwinds inside any MTBDD operation.
func installGovernance(m *mtbdd.Manager, opts Options) {
	if ctx := opts.Ctx; ctx != nil {
		m.SetInterrupt(func() error { return govern.Check(ctx) })
	}
	if opts.NodeBudget > 0 {
		m.SetNodeBudget(opts.NodeBudget)
	}
}

// SetContext re-arms a finished verifier for a check under ctx (nil: none):
// the ladder's polls and the manager's interrupt hook both follow the
// verifier's context, and the one it was built under may be long expired.
// Any number of checks — Run, Check — can follow one another on a verifier
// this way, each under its own.
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
// It is the boundary of every governed step (the ladder), so a panic in
// execution or a check — in a compose domain's goroutine too — surfaces as
// that step's error, not as the end of the process.
func contained(fn func()) (err error) {
	defer func() {
		if r := recover(); r == nil {
			return
		} else if e := mtbdd.AbortError(r); e != nil {
			err = e
		} else {
			err = fmt.Errorf("core: contained panic: %v\n%s", r, debug.Stack())
		}
	}()
	fn()
	return nil
}

// ladder is the one budget ladder every governed step — a flow execution,
// a sealed list's unsealing, a property check — runs through on the engine's
// manager (DESIGN.md §10):
//
//  1. poll the context, then run attempt contained;
//  2. on a node-budget breach, collect the manager — the engine caches and
//     the finished STFs in done are the roots — and retry once;
//  3. a breach the collection did not relieve comes back as the typed
//     error, like cancellation and every other failure.
//
// What answers an unrelieved breach is the caller's business (yu.Verify's
// degrade policy enumerates the whole run). attempt must be idempotent: it
// reruns on retry.
func (e *Engine) ladder(done []*FlowSTF, attempt func()) error {
	if err := govern.Check(e.opts.Ctx); err != nil {
		return err
	}
	err := contained(attempt)
	if errors.Is(err, govern.ErrNodeBudget) {
		e.opts.Obs.Counter("govern.budget_gc_retries").Inc()
		e.m.GC(e.roots(stfRoots(nil, done)))
		err = contained(attempt)
	}
	return err
}

// testExecHook, when non-nil, runs inside every governed flow execution,
// before the flow executes. It is a test seam: injecting a panic here
// exercises containment on every execution path without corrupting any
// real state.
var testExecHook func(topo.Flow)

// ExecuteGoverned runs one flow's symbolic execution through the budget
// ladder — execution followed by the engine's managed GC is the attempt.
// done lists the engine's already-built STFs, the GC roots that must survive
// a collection. Exported for the compositional coordinator, which executes
// class representatives on per-domain engines outside any Verifier.
func (e *Engine) ExecuteGoverned(f topo.Flow, done []*FlowSTF) (*FlowSTF, error) {
	var s *FlowSTF
	err := e.ladder(done, func() {
		if testExecHook != nil {
			testExecHook(f)
		}
		s = e.ExecuteFlow(f)
		e.maybeGC(done, stfRoots(nil, []*FlowSTF{s}))
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
