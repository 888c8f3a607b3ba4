package mtbdd

import (
	"errors"
	"math"
	"math/rand"
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

// skipToID makes m's next node take id next, as if every id below it
// were held: the slab directory gets nil slabs up to the one that holds
// next (no GC has listed them free), and that slab is opened at next's
// cell.
func skipToID(m *Manager, next int) {
	s := (next - 1) >> slabBits
	for len(m.slabs) < s {
		m.slabs = append(m.slabs, nil)
	}
	m.slabs = append(m.slabs, new(slab))
	m.open, m.slabUsed = s, (next-1)&(slabSize-1)
}

// TestIDSpaceExhaustion starts a manager three ids short of the largest
// 32-bit id it can hand out, 2^32 − slabSize, with every slab below held:
// the last three ids are handed out, and the next mk or Const that needs
// a fresh node aborts through Guard with an error that matches
// govern.ErrNodeBudget, instead of wrapping to an id already in use.
// Every node still resolves afterwards, and lookups that need no fresh
// node keep working.
func TestIDSpaceExhaustion(t *testing.T) {
	m := New()
	m.AddVar("x")
	m.AddVar("y")
	early := m.Add(m.Var(0), m.Const(2))
	last := maxSlabs << slabBits
	if last > math.MaxUint32 || last+slabSize <= math.MaxUint32 {
		t.Fatalf("the largest id %d is not the last whole slab below 2^32", last)
	}
	skipToID(m, last-2)

	late := []*Node{m.Const(100), m.Const(101), m.Var(1)}
	for i, n := range late {
		if want := uint32(last - 2 + i); n.id != want {
			t.Fatalf("node %d took id %d, want %d", i, n.id, want)
		}
	}
	created := m.Stats().Created

	for name, build := range map[string]func(){
		"Const": func() { m.Const(102) },
		"mk":    func() { m.NVar(1) },
	} {
		err := Guard(build)
		if !errors.Is(err, govern.ErrNodeBudget) {
			t.Fatalf("%s past the id space: err = %v, want govern.ErrNodeBudget", name, err)
		}
		var ie *IDSpaceError
		if !errors.As(err, &ie) || ie.Created != created {
			t.Fatalf("%s past the id space: err = %#v, want an *IDSpaceError after %d nodes", name, err, created)
		}
	}
	if len(m.slabs) != maxSlabs || m.slabUsed != slabSize || m.Stats().Created != created {
		t.Fatalf("an aborted construction moved the allocator to %d slabs, %d cells (created %d)", len(m.slabs), m.slabUsed, m.Stats().Created)
	}

	for _, n := range append([]*Node{m.Zero(), m.One(), early, m.node(early.lo), m.node(early.hi)}, late...) {
		if got := m.node(n.id); got != n {
			t.Fatalf("node(%d) = %p, want %p", n.id, got, n)
		}
	}
	if got := m.Eval(early, []bool{true}); got != 3 {
		t.Fatalf("Eval(x+2, x=1) = %g after the abort, want 3", got)
	}
	if m.Const(100) != late[0] || m.Var(1) != late[2] || m.Add(m.Var(0), m.Const(2)) != early {
		t.Fatal("a lookup that needs no fresh node did not return the existing node")
	}
}

// TestIDSpaceRecoveredByGC is a long-lived manager serving query after
// query on a retained root, like a daemon's verified version, in an id
// space shrunk to four slabs. Each query runs as core's budget ladder
// does: guarded, and on a budget-class abort collected with the retained
// root and retried once. The queries create ten times the id space in
// all; every one must answer, because a GC's released slabs are reopened
// with their ids, and every id stays inside the space.
func TestIDSpaceRecoveredByGC(t *testing.T) {
	defer func(n int) { maxSlabs = n }(maxSlabs)
	maxSlabs = 4
	const n = 12
	m := newMgr(t, n)
	keep := randomMTBDD(m, rand.New(rand.NewSource(37)), n, 6)
	retries := 0
	for q := int64(0); m.Stats().Created < 10*uint64(maxSlabs)*slabSize; q++ {
		var op, sum *Node
		attempt := func() {
			op = randomMTBDD(m, rand.New(rand.NewSource(q)), n, 7)
			sum = m.Add(keep, op)
		}
		err := Guard(attempt)
		if errors.Is(err, govern.ErrNodeBudget) {
			retries++
			m.GC([]*Node{keep})
			err = Guard(attempt)
		}
		if err != nil {
			t.Fatalf("query %d after %d nodes created: %v", q, m.Stats().Created, err)
		}
		// The query's answer against its operands, on one assignment.
		r := rand.New(rand.NewSource(-1 - q))
		a := make([]bool, n)
		for i := range a {
			a[i] = r.Intn(2) == 0
		}
		if got, want := m.Eval(sum, a), m.Eval(keep, a)+m.Eval(op, a); got != want {
			t.Fatalf("query %d: %g, want %g", q, got, want)
		}
		if max := uint32(maxSlabs << slabBits); sum.id > max {
			t.Fatalf("query %d: id %d outside the %d-id space", q, sum.id, max)
		}
	}
	if retries == 0 {
		t.Fatal("no query ran out of ids: the test exercises nothing")
	}
	if got := m.node(keep.id); got != keep {
		t.Fatalf("node(%d) = %p, want the retained root %p", keep.id, got, keep)
	}
}
