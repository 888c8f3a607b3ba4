package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

// wanWorkload builds a WAN case big enough that flow execution takes
// well over the cancellation latencies the tests assert on.
func wanWorkload(t testing.TB) (*config.Spec, []topo.Flow) {
	t.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: 40, Links: 80, Prefixes: 12, SRPolicyFraction: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 600, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 3, Seed: 142,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec, flows
}

// TestCancelMidParallelRun cancels a verification — NewParallelVerifier at
// four workers, which executes on the engine's manager like NewVerifier —
// while it executes its flows, and requires a prompt typed unwind with a
// partial report that names what was left unchecked. The cancellation counts
// polls (a timer loses to a run that finishes first).
func TestCancelMidParallelRun(t *testing.T) {
	spec, flows := wanWorkload(t)
	ctx := &pollCancelCtx{Context: context.Background()}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{Ctx: ctx})
	ctx.arm(64)
	start := time.Now()
	rep, err := NewParallelVerifier(eng, flows, 4).Run(spec.Props, nil, 0.5)
	elapsed := time.Since(start)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want govern.ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v, want well under 1s", elapsed)
	}
	if rep == nil || !rep.Incomplete {
		t.Fatalf("want a partial report with Incomplete set, got %+v", rep)
	}
	if len(rep.Unchecked) == 0 {
		t.Fatal("partial report does not name the unchecked links")
	}
	if rep.Holds {
		t.Fatal("an incomplete report must not claim the properties hold")
	}
}

// pollCancelCtx is a context that, once armed, cancels itself after its
// Err method has been polled a fixed number of times. Wall-clock sleeps
// race with how fast the phase under test runs (the fused kernels made
// the check phase quick enough for a 2ms timer to occasionally lose);
// counting polls lands the cancellation mid-phase deterministically,
// because the governance layer observes cancellation exclusively through
// Err — both the per-job govern.Check and the managers' interrupt hooks.
type pollCancelCtx struct {
	context.Context
	armed atomic.Bool
	left  atomic.Int64
}

func (c *pollCancelCtx) arm(polls int64) {
	c.left.Store(polls)
	c.armed.Store(true)
}

func (c *pollCancelCtx) Err() error {
	if !c.armed.Load() {
		return nil
	}
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidParallelCheckPhase lets execution finish, then cancels while
// the per-link check loop is running: the run must return promptly with the
// remaining links listed as unchecked.
func TestCancelMidParallelCheckPhase(t *testing.T) {
	spec, flows := wanWorkload(t)
	ctx := &pollCancelCtx{Context: context.Background()}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{Ctx: ctx})
	v := NewParallelVerifier(eng, flows, 4)
	if v.Err() != nil {
		t.Fatalf("execution failed before cancel: %v", v.Err())
	}
	// Arm only now, so the countdown cannot be consumed by route
	// simulation or flow execution: it survives the handful of polls
	// issued while the first links are claimed, then cancels — always
	// inside the check loop.
	ctx.arm(8)
	start := time.Now()
	// Capacity bounds build and scan every link's load: no early stop
	// shortens the loop the cancel has to land in.
	rep, err := v.Run(capacityBounds(spec.Net, 0.5), nil, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want govern.ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v, want well under 1s", elapsed)
	}
	if !rep.Incomplete || len(rep.Unchecked) == 0 {
		t.Fatalf("want Incomplete report naming unchecked links, got Incomplete=%v unchecked=%d",
			rep.Incomplete, len(rep.Unchecked))
	}
}

// TestCancelMidSequentialChecks cancels between the execution phase and
// the check phase, so the unwind happens inside Verifier.Run itself.
func TestCancelMidSequentialChecks(t *testing.T) {
	spec, flows := wanWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{Ctx: ctx})
	ver := NewVerifier(eng, flows)
	if ver.Err() != nil {
		t.Fatalf("execution failed before cancel: %v", ver.Err())
	}
	cancel()
	rep, err := ver.Run(spec.Props, nil, 0.5)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want govern.ErrCanceled", err)
	}
	if !rep.Incomplete || len(rep.Unchecked) == 0 {
		t.Fatalf("want Incomplete report naming unchecked links, got Incomplete=%v unchecked=%d",
			rep.Incomplete, len(rep.Unchecked))
	}
}

// TestWorkerPanicContainment injects a panic into flow execution via the
// test hook and requires it to surface as an error on Run — never as a
// process crash — with the report marked incomplete.
func TestWorkerPanicContainment(t *testing.T) {
	spec, err := config.ParseSpecString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
	testExecHook = func(topo.Flow) { panic("injected test panic") }
	defer func() { testExecHook = nil }()
	v := NewParallelVerifier(eng, spec.Flows, 2)
	rep, err := v.Run(spec.Props, spec.Delivered, 1.0)
	if err == nil {
		t.Fatal("the panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "contained panic") || !strings.Contains(err.Error(), "injected test panic") {
		t.Fatalf("err = %v, want a contained panic naming the cause", err)
	}
	if rep == nil || !rep.Incomplete {
		t.Fatalf("want an Incomplete report after a contained panic, got %+v", rep)
	}
}

// TestCheckPlanPanicContained: a panic inside a plan's check is that Check's
// error — not a crash — with the plan that raised it not done, and the
// verifier checks on afterwards.
func TestCheckPlanPanicContained(t *testing.T) {
	spec, flows := wanWorkload(t)
	v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	plans := lower(spec.Net, nil, nil, 0.5)
	good := plans[0]
	plans[0].Checks = nil // the pruned scan reads Checks[0]
	res, err := v.Check(plans)
	if err == nil || !strings.Contains(err.Error(), "contained panic") {
		t.Fatalf("err = %v, want a contained panic", err)
	}
	if res[0].Done {
		t.Fatal("the plan that panicked is marked done")
	}
	plans[0] = good
	res, err = v.Check(plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !res[i].Done {
			t.Fatalf("plan %d not done on the check after the panic", i)
		}
	}
}

// TestNodeBudgetFailSurfaces runs with a 1-node budget under the default
// fail policy: execution must unwind with the typed budget error and the
// report must mark every property unchecked.
func TestNodeBudgetFailSurfaces(t *testing.T) {
	spec, err := config.ParseSpecString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{NodeBudget: 1})
	rep, rerr := NewVerifier(eng, spec.Flows).Run(spec.Props, spec.Delivered, 1.0)
	if !errors.Is(rerr, govern.ErrNodeBudget) {
		t.Fatalf("err = %v, want govern.ErrNodeBudget", rerr)
	}
	if rep == nil || !rep.Incomplete {
		t.Fatalf("want an Incomplete partial report, got %+v", rep)
	}
	if rep.Holds {
		t.Fatal("budget-interrupted report must not claim the properties hold")
	}
}

// TestNodeBudgetDegradeFallsBack runs the same 1-node budget under the
// degrade policy: no error, and every flow verified by the bounded
// concrete fallback instead.
func TestNodeBudgetDegradeFallsBack(t *testing.T) {
	spec, err := config.ParseSpecString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{
		NodeBudget: 1, OnBudget: BudgetDegrade, Configs: spec.Configs,
	})
	ver := NewVerifier(eng, spec.Flows)
	if ver.Err() != nil {
		t.Fatalf("degrade policy surfaced an execution error: %v", ver.Err())
	}
	rep, rerr := ver.Run(spec.Props, spec.Delivered, 1.0)
	if rerr != nil {
		t.Fatalf("degrade policy surfaced a Run error: %v", rerr)
	}
	if len(rep.DegradedFlows) == 0 {
		t.Fatal("1-node budget under degrade policy produced no degraded flows")
	}
}
