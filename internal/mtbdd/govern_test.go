package mtbdd

import (
	"errors"
	"testing"

	"github.com/yu-verify/yu/internal/govern"
)

// buildBig constructs a function with many distinct terminal values so
// the unique table grows well past any small budget.
func buildBig(m *Manager, vars int) *Node {
	for i := 0; i < vars; i++ {
		m.AddVar("x")
	}
	f := m.Zero()
	for i := 0; i < vars; i++ {
		f = m.Add(f, m.Mul(m.Var(i), m.Const(float64(i+1))))
	}
	return f
}

// TestBudgetUnwind breaches a small node budget inside Guard and checks
// the typed error surfaces via errors.Is, then lifts the budget and
// confirms the manager is still fully usable.
func TestBudgetUnwind(t *testing.T) {
	m := New()
	m.SetNodeBudget(8)
	err := Guard(func() { buildBig(m, 12) })
	if err == nil {
		t.Fatal("no error from a 12-variable build under an 8-node budget")
	}
	if !errors.Is(err, govern.ErrNodeBudget) {
		t.Fatalf("err = %v, want govern.ErrNodeBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Limit != 8 || be.Live <= be.Limit {
		t.Fatalf("BudgetError{Limit: %d, Live: %d} inconsistent", be.Limit, be.Live)
	}

	// After lifting the budget the same manager must finish the build:
	// an abort leaves only canonical nodes behind.
	m.SetNodeBudget(0)
	f := m.Zero()
	for i := 0; i < m.NumVars(); i++ {
		f = m.Add(f, m.Mul(m.Var(i), m.Const(float64(i+1))))
	}
	assign := make([]bool, m.NumVars())
	assign[3] = true
	if got := m.Eval(f, assign); got != 4 {
		t.Fatalf("post-abort Eval = %g, want 4", got)
	}
}

// TestInterruptAborts installs an interrupt hook that trips after a few
// polls and checks the operation unwinds with the hook's error.
func TestInterruptAborts(t *testing.T) {
	m := New()
	polls := 0
	m.SetInterrupt(func() error {
		polls++
		if polls >= 2 {
			return govern.ErrCanceled
		}
		return nil
	})
	err := Guard(func() {
		// Keep rebuilding from scratch so apply cannot be satisfied
		// from cache and op counting continues.
		for i := 0; ; i++ {
			m.ClearCaches()
			buildBigFrom(m, 16, float64(i))
		}
	})
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want govern.ErrCanceled", err)
	}
	if prev := m.SetInterrupt(nil); prev == nil {
		t.Fatal("SetInterrupt(nil) did not return the previous hook")
	}
	// The manager stays usable after the abort.
	if got := m.Eval(m.Const(7), nil); got != 7 {
		t.Fatalf("post-interrupt Eval = %g, want 7", got)
	}
}

// buildBigFrom is buildBig with an offset so successive rounds create
// fresh nodes (distinct terminals) instead of hitting the unique table.
func buildBigFrom(m *Manager, vars int, offset float64) *Node {
	for m.NumVars() < vars {
		m.AddVar("x")
	}
	f := m.Zero()
	for i := 0; i < vars; i++ {
		f = m.Add(f, m.Mul(m.Var(i), m.Const(offset+float64(i)+0.5)))
	}
	return f
}

// TestAbortSharesUnwindPath checks that Guard stops operation aborts only:
// an abort from inside an operation comes back as its error, and any other
// panic passes through Guard.
func TestAbortSharesUnwindPath(t *testing.T) {
	m := New()
	m.SetNodeBudget(1)
	err := Guard(func() { buildBig(m, 4) })
	if !errors.Is(err, govern.ErrNodeBudget) {
		t.Fatalf("err = %v, want govern.ErrNodeBudget", err)
	}

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Guard swallowed a non-abort panic")
		}
	}()
	Guard(func() { panic("unrelated") }) //nolint:errcheck
}
