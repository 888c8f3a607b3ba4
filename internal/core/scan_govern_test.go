package core

import (
	"context"
	"errors"
	"testing"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// Governance inside the n-ary walks. One aggregation is now a single kernel
// call, so a cancellation or a node-budget breach that lands in the check
// stage lands inside that call: it must unwind through the budget ladder as
// the typed error it always was, and leave a manager that still builds the
// reference's node.

// busiestLink returns the directed link the most STFs cross: at k=2 on the
// wan-k2 shape its walk visits thousands of states, several interrupt
// strides' worth.
func busiestLink(v *Verifier) topo.DirLinkID {
	best := 0
	for l := range v.linkIdx {
		if len(v.linkIdx[l]) > len(v.linkIdx[best]) {
			best = l
		}
	}
	return topo.DirLinkID(best)
}

// loadMatchesReference reports whether the link's load is still the node
// the reference fold builds.
func loadMatchesReference(v *Verifier, l topo.DirLinkID) bool {
	got, _ := v.LinkLoad(l)
	var stat LinkCheckStat
	return got == refSum(v, refLinkClasses(v, l, &stat))
}

func TestCancelInsideAggregationKernels(t *testing.T) {
	ctx := &pollCancelCtx{Context: context.Background()}
	spec, v := benchShapes[1].verifier(t, Options{Ctx: ctx})
	l := busiestLink(v)

	// The pruned check's limit is the link's true maximum load: no prefix
	// short of all classes violates and the remaining mass never rules a
	// violation out, so PrefixMaxK runs over every growing prefix.
	tau, _ := v.LinkLoad(l)
	_, hi := v.e.m.Range(tau)
	pruned := Plan{Subject: Subject{Link: l}, Checks: []LinkCheck{{Max: hi, Overload: true, CondVar: -1}}, pruned: true}

	for name, attempt := range map[string]func(){
		"SumMulK":    func() { v.load(Subject{Link: l}) },
		"PrefixMaxK": func() { v.check(pruned) },
	} {
		// The ladder polls once on entry; the second poll can only come
		// from the manager's interrupt hook, inside the walk.
		ctx.arm(1)
		err := v.e.ladder(v.stfs, attempt)
		ctx.armed.Store(false)
		if !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("%s: err = %v, want govern.ErrCanceled from inside the walk", name, err)
		}
		if !loadMatchesReference(v, l) {
			t.Fatalf("%s: the manager no longer builds the reference's node after the cancellation", name)
		}
	}

	// Through the public surface: Check reports the typed error with the
	// plan not done, Run a partial report.
	ctx.arm(1)
	res, err := v.Check([]Plan{{Subject: Subject{Link: l}, Checks: []LinkCheck{{Max: 1, Overload: true, CondVar: -1}}}})
	ctx.armed.Store(false)
	if !errors.Is(err, govern.ErrCanceled) || res[0].Done {
		t.Fatalf("Check: err = %v done = %v, want govern.ErrCanceled", err, res[0].Done)
	}
	ctx.arm(3)
	rep, err := v.Run(spec.Props, nil, 1.0)
	ctx.armed.Store(false)
	if !errors.Is(err, govern.ErrCanceled) || !rep.Incomplete || len(rep.Unchecked) == 0 {
		t.Fatalf("Run: err = %v, want govern.ErrCanceled with the unchecked links named", err)
	}
}

// TestNodeBudgetInsideAggregationKernel: a breach inside the aggregation
// kernel that the ladder's collection cannot relieve surfaces from Check as
// the typed error with the plan not done, and the manager still builds the
// reference's node afterwards.
func TestNodeBudgetInsideAggregationKernel(t *testing.T) {
	_, v := benchShapes[1].verifier(t, Options{})
	l := busiestLink(v)
	m := v.e.m
	m.GC(v.e.roots(stfRoots(nil, v.stfs)))
	// Room for a few nodes only: the load of the busiest link needs
	// hundreds, and the ladder's collection frees nothing.
	m.SetNodeBudget(m.Stats().Live + 10)
	res, err := v.Check([]Plan{{Subject: Subject{Link: l}, Checks: []LinkCheck{{Max: 1, Overload: true, CondVar: -1}}}})
	if !errors.Is(err, govern.ErrNodeBudget) || res[0].Done {
		t.Fatalf("err = %v done = %v, want govern.ErrNodeBudget with the plan not done", err, res[0].Done)
	}
	var be *mtbdd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v carries no *mtbdd.BudgetError", err)
	}
	m.SetNodeBudget(0)
	if !loadMatchesReference(v, l) {
		t.Fatal("the manager no longer builds the reference's node after the breach")
	}
}
