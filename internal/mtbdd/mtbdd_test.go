package mtbdd

import (
	"math"
	"testing"
)

func newMgr(t testing.TB, n int) *Manager {
	t.Helper()
	m := New()
	for i := 0; i < n; i++ {
		m.AddVar("x" + string(rune('0'+i)))
	}
	return m
}

// allAssignments invokes fn with every assignment of n variables.
func allAssignments(n int, fn func(assign []bool)) {
	assign := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			assign[i] = mask&(1<<i) != 0
		}
		fn(assign)
	}
}

func failures(assign []bool) int {
	c := 0
	for _, a := range assign {
		if !a {
			c++
		}
	}
	return c
}

func TestConstHashConsing(t *testing.T) {
	m := newMgr(t, 0)
	if m.Const(2.5) != m.Const(2.5) {
		t.Error("equal constants must be the same node")
	}
	if m.Const(0) != m.Zero() || m.Const(1) != m.One() {
		t.Error("Zero/One must alias Const(0)/Const(1)")
	}
	if m.Const(math.Copysign(0, -1)) != m.Zero() {
		t.Error("-0 must normalize to +0")
	}
	if m.Const(2.5) == m.Const(3.5) {
		t.Error("distinct constants must differ")
	}
}

func TestConstNaNPanics(t *testing.T) {
	m := newMgr(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("Const(NaN) must panic")
		}
	}()
	m.Const(math.NaN())
}

func TestVarEval(t *testing.T) {
	m := newMgr(t, 3)
	x1 := m.Var(1)
	if got := m.Eval(x1, []bool{true, true, true}); got != 1 {
		t.Errorf("x1(1,1,1) = %v, want 1", got)
	}
	if got := m.Eval(x1, []bool{true, false, true}); got != 0 {
		t.Errorf("x1(1,0,1) = %v, want 0", got)
	}
	n1 := m.NVar(1)
	if got := m.Eval(n1, []bool{true, false, true}); got != 1 {
		t.Errorf("!x1(1,0,1) = %v, want 1", got)
	}
	if m.Not(x1) != n1 {
		t.Error("Not(Var) must equal NVar")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	m := newMgr(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("Var(5) must panic")
		}
	}()
	m.Var(5)
}

func TestReductionRule(t *testing.T) {
	m := newMgr(t, 2)
	// x0*1 + (1-x0)*1 == 1: the node must collapse.
	f := m.ITE(m.Var(0), m.One(), m.One())
	if f != m.One() {
		t.Errorf("redundant test must collapse, got %s", m.String(f))
	}
}

// TestApplyAgainstDense cross-checks every binary op against brute-force
// evaluation on all assignments of 4 variables, for a few structured
// operand pairs.
func TestApplyAgainstDense(t *testing.T) {
	const n = 4
	m := newMgr(t, n)
	x := make([]*Node, n)
	for i := range x {
		x[i] = m.Var(i)
	}
	// A mix of guards and numeric MTBDDs.
	operands := []*Node{
		m.Zero(),
		m.One(),
		m.Const(2.5),
		x[0],
		m.Not(x[1]),
		m.And(x[0], x[2]),
		m.Or(x[1], m.And(x[2], x[3])),
		m.Add(m.Scale(3, x[0]), m.Scale(0.5, m.Mul(m.Not(x[1]), x[2]))),
		m.Add(m.Mul(x[0], m.Const(10)), m.Mul(m.Not(x[0]), m.Const(4))),
	}
	type opCase struct {
		name  string
		apply func(a, b *Node) *Node
		eval  func(a, b float64) float64
	}
	cases := []opCase{
		{"Add", m.Add, func(a, b float64) float64 { return a + b }},
		{"Sub", m.Sub, func(a, b float64) float64 { return a - b }},
		{"Mul", m.Mul, func(a, b float64) float64 { return a * b }},
		{"Div", func(a, b *Node) *Node { return m.DivK(a, b, -1) }, func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}},
		{"Min", m.Min, math.Min},
		{"Max", m.Max, math.Max},
	}
	for _, tc := range cases {
		for i, f := range operands {
			for j, g := range operands {
				h := tc.apply(f, g)
				allAssignments(n, func(assign []bool) {
					want := tc.eval(m.Eval(f, assign), m.Eval(g, assign))
					got := m.Eval(h, assign)
					if got != want && !(math.IsNaN(want) && got == 0) {
						t.Fatalf("%s(op%d,op%d)(%v) = %v, want %v", tc.name, i, j, assign, got, want)
					}
				})
			}
		}
	}
}

func TestBooleanOpsAgainstDense(t *testing.T) {
	const n = 3
	m := newMgr(t, n)
	guards := []*Node{
		m.Zero(), m.One(),
		m.Var(0), m.Var(1), m.Not(m.Var(2)),
		m.And(m.Var(0), m.Var(1)),
		m.Or(m.Not(m.Var(0)), m.Var(2)),
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, f := range guards {
		for _, g := range guards {
			and, or := m.And(f, g), m.Or(f, g)
			notf := m.Not(f)
			allAssignments(n, func(assign []bool) {
				fv := m.Eval(f, assign) != 0
				gv := m.Eval(g, assign) != 0
				if m.Eval(and, assign) != b2f(fv && gv) {
					t.Fatalf("And mismatch at %v", assign)
				}
				if m.Eval(or, assign) != b2f(fv || gv) {
					t.Fatalf("Or mismatch at %v", assign)
				}
				if m.Eval(notf, assign) != b2f(!fv) {
					t.Fatalf("Not mismatch at %v", assign)
				}
			})
		}
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	m := newMgr(t, 4)
	f := m.Add(m.Scale(2, m.Var(0)), m.Mul(m.Not(m.Var(1)), m.Const(7)))
	g := m.Mul(m.Var(2), m.Const(3))
	if m.Add(f, g) != m.Add(g, f) {
		t.Error("Add must commute (canonical nodes)")
	}
	if m.Mul(f, g) != m.Mul(g, f) {
		t.Error("Mul must commute")
	}
	if m.Sub(f, f) != m.Zero() {
		t.Error("f - f must be 0")
	}
	if m.Add(f, m.Zero()) != f {
		t.Error("f + 0 must be f")
	}
	if m.Mul(f, m.One()) != f {
		t.Error("f * 1 must be f")
	}
	if m.Mul(f, m.Zero()) != m.Zero() {
		t.Error("f * 0 must be 0")
	}
	h := m.Var(3)
	lhs := m.Mul(f, m.Add(g, h))
	rhs := m.Add(m.Mul(f, g), m.Mul(f, h))
	if lhs != rhs {
		t.Error("Mul must distribute over Add on canonical nodes")
	}
}

func TestITE(t *testing.T) {
	const n = 3
	m := newMgr(t, n)
	g := m.And(m.Var(0), m.Not(m.Var(1)))
	f := m.Const(30)
	h := m.Scale(10, m.Var(2))
	ite := m.ITE(g, f, h)
	allAssignments(n, func(assign []bool) {
		var want float64
		if m.Eval(g, assign) != 0 {
			want = m.Eval(f, assign)
		} else {
			want = m.Eval(h, assign)
		}
		if got := m.Eval(ite, assign); got != want {
			t.Fatalf("ITE(%v) = %v, want %v", assign, got, want)
		}
	})
	if m.ITE(m.One(), f, h) != f || m.ITE(m.Zero(), f, h) != h {
		t.Error("ITE constant-guard shortcuts broken")
	}
}

func TestRestrict(t *testing.T) {
	const n = 3
	m := newMgr(t, n)
	f := m.Add(m.Mul(m.Var(0), m.Const(4)), m.Mul(m.And(m.Not(m.Var(1)), m.Var(2)), m.Const(9)))
	for v := 0; v < n; v++ {
		for _, val := range []bool{false, true} {
			r := m.Restrict(f, v, val)
			allAssignments(n, func(assign []bool) {
				forced := append([]bool(nil), assign...)
				forced[v] = val
				if got, want := m.Eval(r, assign), m.Eval(f, forced); got != want {
					t.Fatalf("Restrict(x%d=%v)(%v) = %v, want %v", v, val, assign, got, want)
				}
			})
			if m.Restrict(r, v, !val) != r {
				t.Fatalf("Restrict left x%d in support", v)
			}
		}
	}
}

func TestRangeAndTerminals(t *testing.T) {
	m := newMgr(t, 2)
	// f = 60*x0 + 25*!x0*x1  -> terminals {0, 25, 60}
	f := m.Add(m.Scale(60, m.Var(0)), m.Scale(25, m.Mul(m.Not(m.Var(0)), m.Var(1))))
	lo, hi := m.Range(f)
	if lo != 0 || hi != 60 {
		t.Errorf("Range = [%v,%v], want [0,60]", lo, hi)
	}
	if lo, hi := m.Range(m.Restrict(f, 0, false)); lo != 0 || hi != 25 {
		t.Errorf("Range of the x0-failed cofactor = [%v,%v], want [0,25]", lo, hi)
	}
}

func TestWitness(t *testing.T) {
	m := newMgr(t, 3)
	// f = 100 when x0 failed and x1 failed, else 40.
	f := m.ITE(m.And(m.Not(m.Var(0)), m.Not(m.Var(1))), m.Const(100), m.Const(40))
	a, v, ok := witnessOutside(m, f, 0, 95)
	if !ok {
		t.Fatal("expected a violation witness")
	}
	if v != 100 {
		t.Errorf("witness value = %v, want 100", v)
	}
	if len(a.FailedVars()) != 2 {
		t.Errorf("witness failures = %v, want x0,x1", a.FailedVars())
	}
	if _, _, ok := witnessOutside(m, f, 0, 100); ok {
		t.Error("no witness expected when range covers all terminals")
	}
	// Witness must prefer fewer failures: 40 is reachable all-alive.
	a2, v2, ok := m.Witness(f, func(x float64) bool { return x == 40 })
	if !ok || v2 != 40 {
		t.Fatal("expected witness for 40")
	}
	if len(a2.FailedVars()) != 0 {
		t.Errorf("witness should prefer the all-alive path, got failures %v", a2.FailedVars())
	}
}

func TestForEachPathEarlyStop(t *testing.T) {
	m := newMgr(t, 4)
	f := m.Add(m.Var(0), m.Add(m.Var(1), m.Add(m.Var(2), m.Var(3))))
	count := 0
	m.ForEachPath(f, func(a Assignment, v float64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d paths, want 3", count)
	}
}

func TestEvalPartialAssignmentDefaultsAlive(t *testing.T) {
	m := newMgr(t, 3)
	f := m.Var(2)
	if got := m.Eval(f, []bool{false}); got != 1 {
		t.Errorf("unassigned variables must default to alive, got %v", got)
	}
}

func TestNodeCount(t *testing.T) {
	m := newMgr(t, 2)
	if m.NodeCount(m.Zero()) != 1 {
		t.Error("terminal node count must be 1")
	}
	x0 := m.Var(0)
	if got := m.NodeCount(x0); got != 3 {
		t.Errorf("Var node count = %d, want 3", got)
	}
}

func TestStatsAndClearCaches(t *testing.T) {
	m := newMgr(t, 4)
	f := m.Add(m.Var(0), m.Var(1))
	g := m.Add(m.Var(0), m.Var(1)) // must hit cache
	if f != g {
		t.Fatal("hash-consing broken")
	}
	st := m.Stats()
	if st.Fused.Hits == 0 {
		t.Error("expected computed-table hits")
	}
	if st.Created == 0 || st.Live == 0 {
		t.Error("stats must count created/live nodes")
	}
	m.ClearCaches()
	if m.Add(m.Var(0), m.Var(1)) != f {
		t.Error("results must be stable across ClearCaches")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestStringRendering(t *testing.T) {
	m := newMgr(t, 2)
	if got := m.String(m.Const(3)); got != "3" {
		t.Errorf("String(3) = %q", got)
	}
	f := m.Scale(0.5, m.Var(0))
	s := m.String(f)
	if !contains(s, "0.5") || !contains(s, "x0") {
		t.Errorf("String = %q, want mention of 0.5 and x0", s)
	}
}
