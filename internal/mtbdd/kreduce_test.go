package mtbdd

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestKReducePaperFig8 reproduces Figure 8(b) of the paper: for
// F = x1 ∧ ¬x2, KREDUCE(F, 1) merges the (0-failure-equivalent) cofactors
// and yields ¬x2.
func TestKReducePaperFig8(t *testing.T) {
	m := newMgr(t, 2)
	f := m.And(m.Var(0), m.Not(m.Var(1)))
	got := m.KReduce(f, 1)
	want := m.Not(m.Var(1))
	if got != want {
		t.Errorf("KReduce(x0&!x1, 1) = %s, want !x1", m.String(got))
	}
}

// TestKReduceSTLExample reproduces the §5.2 example: the STL
// 60·x1 + 25·(x1·¬x2 + ¬x1·x2·x3) under k=2 is 2-failure-equivalent to an
// MTBDD that drops nothing (every path has ≤2 failures already), while
// under k=1 the ¬x1∧¬x2-style deep-failure paths are pruned.
func TestKReduceSTLExample(t *testing.T) {
	m := newMgr(t, 3)
	x1, x2, x3 := m.Var(0), m.Var(1), m.Var(2)
	stl := m.Add(m.Scale(60, x1),
		m.Scale(25, m.Add(m.Mul(x1, m.Not(x2)), m.And(m.And(m.Not(x1), x2), x3))))
	for k := 0; k <= 3; k++ {
		r := m.KReduce(stl, k)
		if got := m.MaxFailuresOnPath(r); got > k {
			t.Errorf("k=%d: path with %d failures survived", k, got)
		}
		allAssignments(3, func(assign []bool) {
			if failures(assign) <= k {
				if m.Eval(r, assign) != m.Eval(stl, assign) {
					t.Errorf("k=%d: value changed at %v", k, assign)
				}
			}
		})
	}
}

func TestKReduceZeroFailures(t *testing.T) {
	m := newMgr(t, 3)
	f := m.Add(m.Scale(60, m.Var(0)), m.Scale(25, m.Not(m.Var(1))))
	r := m.KReduce(f, 0)
	if !r.IsTerminal() || r.Value != 60 {
		t.Errorf("KReduce(f,0) = %s, want terminal 60 (all-alive value)", m.String(r))
	}
}

func TestKReduceTerminal(t *testing.T) {
	m := newMgr(t, 1)
	c := m.Const(7)
	for k := 0; k < 3; k++ {
		if m.KReduce(c, k) != c {
			t.Errorf("KReduce on a terminal must be the identity")
		}
	}
}

func TestKReduceNegativeKReturnsF(t *testing.T) {
	m := newMgr(t, 2)
	f := m.Add(m.Var(0), m.Not(m.Var(1)))
	for _, k := range []int{-1, -3} {
		if m.KReduce(f, k) != f {
			t.Errorf("KReduce(f, %d): negative k returns f", k)
		}
	}
	if calls := m.Stats().KReduceCalls; calls != 0 {
		t.Errorf("KReduceCalls = %d, want 0: a call that does not reduce is not counted", calls)
	}
}

func TestKReduceIdempotent(t *testing.T) {
	m := newMgr(t, 5)
	f := randomMTBDD(m, rand.New(rand.NewSource(1)), 5, 4)
	for k := 0; k <= 5; k++ {
		r := m.KReduce(f, k)
		if m.KReduce(r, k) != r {
			t.Errorf("KReduce not idempotent at k=%d", k)
		}
	}
}

func TestKReduceFullBudgetIsIdentityLike(t *testing.T) {
	m := newMgr(t, 4)
	f := randomMTBDD(m, rand.New(rand.NewSource(2)), 4, 4)
	// With k >= number of variables every assignment is within budget, so
	// the reduction must be semantics-preserving everywhere.
	r := m.KReduce(f, 4)
	allAssignments(4, func(assign []bool) {
		if m.Eval(r, assign) != m.Eval(f, assign) {
			t.Fatalf("full-budget KReduce changed value at %v", assign)
		}
	})
}

func TestKEquivalent(t *testing.T) {
	m := newMgr(t, 3)
	// f and g differ only on scenarios with >= 2 failures.
	f := m.Or(m.Var(0), m.Var(1)) // 0 only when both fail
	g := m.One()
	if !m.KEquivalent(f, g, 1) {
		t.Error("f and g must be 1-failure equivalent")
	}
	if m.KEquivalent(f, g, 2) {
		t.Error("f and g must differ at 2 failures")
	}
	if !m.KEquivalent(f, f, 0) {
		t.Error("reflexivity")
	}
}

// randomMTBDD builds a random MTBDD over n variables with the given
// expression depth, mixing boolean and arithmetic structure — the same kind
// of shape symbolic traffic execution produces.
func randomMTBDD(m *Manager, r *rand.Rand, n, depth int) *Node {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return m.Const(float64(r.Intn(5)) * 0.5)
		case 1:
			return m.Var(r.Intn(n))
		default:
			return m.Not(m.Var(r.Intn(n)))
		}
	}
	a := randomMTBDD(m, r, n, depth-1)
	b := randomMTBDD(m, r, n, depth-1)
	switch r.Intn(6) {
	case 0:
		return m.Add(a, b)
	case 1:
		return m.Mul(a, b)
	case 2:
		return m.Min(a, b)
	case 3:
		return m.Max(a, b)
	case 4:
		return m.Sub(a, b)
	default:
		g := randomMTBDD(m, r, n, 1)
		isG := m.Not(m.And(m.Not(g), m.One())) // force {0,1}
		return m.ITE(isG, a, b)
	}
}

// TestKReduceLemma1 is the property-based check of Lemma 1: KReduce(F,k)
// agrees with F on every assignment with at most k failures.
func TestKReduceLemma1(t *testing.T) {
	const n = 7
	r := rand.New(rand.NewSource(42))
	m := newMgr(t, n)
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(randomMTBDD(m, r, n, 5))
			vals[1] = reflect.ValueOf(r.Intn(n + 1))
		},
	}
	prop := func(f *Node, k int) bool {
		red := m.KReduce(f, k)
		ok := true
		allAssignments(n, func(assign []bool) {
			if failures(assign) <= k && m.Eval(red, assign) != m.Eval(f, assign) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKReduceLemma2 is the property-based check of Lemma 2: no path in
// KReduce(F,k) encodes more than k failures.
func TestKReduceLemma2(t *testing.T) {
	const n = 7
	r := rand.New(rand.NewSource(43))
	m := newMgr(t, n)
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(randomMTBDD(m, r, n, 5))
			vals[1] = reflect.ValueOf(r.Intn(n + 1))
		},
	}
	prop := func(f *Node, k int) bool {
		return m.MaxFailuresOnPath(m.KReduce(f, k)) <= k
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKReduceMonotone checks that increasing budget never loses agreement:
// KReduce(f, k+1) also agrees with f on ≤k-failure assignments.
func TestKReduceMonotone(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(44))
	m := newMgr(t, n)
	for trial := 0; trial < 40; trial++ {
		f := randomMTBDD(m, r, n, 4)
		k := r.Intn(n)
		r1 := m.KReduce(f, k+1)
		allAssignments(n, func(assign []bool) {
			if failures(assign) <= k && m.Eval(r1, assign) != m.Eval(f, assign) {
				t.Fatalf("KReduce(f,%d) disagrees on a %d-failure scenario", k+1, failures(assign))
			}
		})
	}
}

// TestKReduceCoarsens checks the lemma the kernels' merge test rests on:
// β_k(H) agrees with H on every assignment with at most k failures, so for
// every j < k, KReduce(KReduce(H, k), j) is the very node KReduce(H, j)
// (Lemma 1 and hash-consing). H ranges over unreduced random MTBDDs, their
// k-reductions and fused-kernel results, and the budgets run past the
// variable count, where KReduce is the identity.
func TestKReduceCoarsens(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(47))
	m := newMgr(t, n)
	for trial := 0; trial < 40; trial++ {
		f := randomMTBDD(m, r, n, 5)
		g := randomMTBDD(m, r, n, 4)
		b := r.Intn(n + 2)
		for _, h := range []*Node{f, m.KReduce(f, b), m.AddK(f, g, b), m.MulAddK(f, g, f, b)} {
			for k := 1; k <= n+1; k++ {
				hk := m.KReduce(h, k)
				for j := 0; j < k; j++ {
					if got, want := m.KReduce(hk, j), m.KReduce(h, j); got != want {
						t.Fatalf("trial %d: KReduce(KReduce(H, %d), %d) = %s, KReduce(H, %d) = %s",
							trial, k, j, m.String(got), j, m.String(want))
					}
				}
			}
		}
	}
}

// TestKReduceShrinks checks the reduction never grows the MTBDD.
func TestKReduceShrinks(t *testing.T) {
	const n = 8
	r := rand.New(rand.NewSource(45))
	m := newMgr(t, n)
	for trial := 0; trial < 40; trial++ {
		f := randomMTBDD(m, r, n, 5)
		for k := 0; k <= 3; k++ {
			if got, limit := m.NodeCount(m.KReduce(f, k)), m.NodeCount(f); got > limit {
				t.Fatalf("KReduce grew the MTBDD: %d > %d (k=%d)", got, limit, k)
			}
		}
	}
}

// TestKReduceOpsPreserveEquivalence checks the pipeline property used by
// Lemma 3: combining k-reduced operands with Add/Mul and re-reducing yields
// a result k-equivalent to combining the originals.
func TestKReduceOpsPreserveEquivalence(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(46))
	m := newMgr(t, n)
	for trial := 0; trial < 40; trial++ {
		f := randomMTBDD(m, r, n, 4)
		g := randomMTBDD(m, r, n, 4)
		k := r.Intn(4)
		exact := m.Add(f, g)
		reduced := m.KReduce(m.Add(m.KReduce(f, k), m.KReduce(g, k)), k)
		if !m.KEquivalent(exact, reduced, k) {
			t.Fatalf("Add broke k-equivalence (k=%d)", k)
		}
		exactM := m.Mul(f, g)
		reducedM := m.KReduce(m.Mul(m.KReduce(f, k), m.KReduce(g, k)), k)
		if !m.KEquivalent(exactM, reducedM, k) {
			t.Fatalf("Mul broke k-equivalence (k=%d)", k)
		}
	}
}

// TestFig18AdditionExplosion reproduces Appendix C / Figure 18: adding two
// small MTBDDs over disjoint variables multiplies their sizes, which is why
// link-local flow equivalence matters.
func TestFig18AdditionExplosion(t *testing.T) {
	m := newMgr(t, 5)
	// T_x from Fig 18(a): tests x0, x2, x4 (paper's x1,x3,x5).
	tx := m.ITE(m.Var(0),
		m.ITE(m.Var(2), m.Const(0), m.Const(10)),
		m.ITE(m.Var(4), m.Const(0), m.Const(5)))
	// T_y from Fig 18(b): tests x1, x3 (paper's x2,x4).
	ty := m.ITE(m.Var(1),
		m.Const(0),
		m.ITE(m.Var(3), m.Const(25), m.Const(50)))
	sum := m.Add(tx, ty)
	nx, ny, ns := m.NodeCount(tx), m.NodeCount(ty), m.NodeCount(sum)
	if ns <= nx && ns <= ny {
		t.Errorf("expected size growth: |Tx|=%d |Ty|=%d |Tx+Ty|=%d", nx, ny, ns)
	}
	// The interleaved-variable sum must contain strictly more internal
	// nodes than either operand.
	if ns < nx+ny-2 {
		t.Errorf("sum unexpectedly compact: |Tx|=%d |Ty|=%d |sum|=%d", nx, ny, ns)
	}
}

func TestMaxFailuresOnPath(t *testing.T) {
	m := newMgr(t, 3)
	if m.MaxFailuresOnPath(m.Const(4)) != 0 {
		t.Error("terminal has 0 failures")
	}
	f := m.And(m.And(m.Not(m.Var(0)), m.Not(m.Var(1))), m.Not(m.Var(2)))
	// The path to terminal 1 fails all three variables... but sibling
	// paths bail out earlier; max over paths is 3.
	if got := m.MaxFailuresOnPath(f); got != 3 {
		t.Errorf("MaxFailuresOnPath = %d, want 3", got)
	}
}

func BenchmarkKReduce(b *testing.B) {
	const n = 24
	m := New()
	for i := 0; i < n; i++ {
		m.AddVar("x")
	}
	r := rand.New(rand.NewSource(7))
	f := randomMTBDD(m, r, n, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(m.kreduceTbl.entries)
		m.KReduce(f, 2)
	}
}

func BenchmarkApplyAdd(b *testing.B) {
	const n = 24
	m := New()
	for i := 0; i < n; i++ {
		m.AddVar("x")
	}
	r := rand.New(rand.NewSource(8))
	f := randomMTBDD(m, r, n, 12)
	g := randomMTBDD(m, r, n, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(m.fusedTbl.entries)
		m.Add(f, g)
	}
}
