package mtbdd

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/yu-verify/yu/internal/govern"
)

// The n-ary kernels' licence: SumMulK returns the very node the binary
// MulAddK chain returns, and PrefixMaxK the exact upper Range end of every
// prefix of that chain — pointer and == equality, never a tolerance.

// mulAddKChain is the aggregation fold the n-ary kernel replaced, kept as
// its reference: it returns every prefix of the chain.
func mulAddKChain(m *Manager, vols []float64, fs []*Node, k int) []*Node {
	out := make([]*Node, len(fs))
	acc := m.Zero()
	for i, f := range fs {
		acc = m.MulAddK(acc, m.Const(vols[i]), f, k)
		out[i] = acc
	}
	return out
}

// sumOperands draws count weighted operands over n variables in the shapes
// load aggregation meets and the kernels' shortcuts special-case: the zero
// node, constants, duplicates of an earlier operand, weights of exactly 0
// and 1, and fractional (1/3, 1/7) weights and terminals whose sums round.
func sumOperands(m *Manager, r *rand.Rand, n, count int) ([]float64, []*Node) {
	vols := make([]float64, count)
	fs := make([]*Node, count)
	fracs := []float64{1.0 / 3, 1.0 / 7, 2.0 / 3, 0.1}
	for i := range fs {
		switch r.Intn(8) {
		case 0:
			fs[i] = m.Zero()
		case 1:
			fs[i] = m.Const(fracs[r.Intn(len(fracs))])
		case 2:
			if i > 0 {
				fs[i] = fs[r.Intn(i)]
				break
			}
			fallthrough
		case 3:
			// An ECMP-like split: a guard scaled by a fraction.
			fs[i] = m.Mul(randomGuard(m, r, n, 3), m.Const(fracs[r.Intn(len(fracs))]))
		default:
			fs[i] = randomMTBDD(m, r, n, 4)
		}
		switch r.Intn(6) {
		case 0:
			vols[i] = 1
		case 1:
			vols[i] = 0
		case 2:
			vols[i] = fracs[r.Intn(len(fracs))]
		default:
			vols[i] = r.Float64() * 40
		}
	}
	return vols, fs
}

// checkSumKernels holds both kernels to their references on one operand
// list at one budget.
func checkSumKernels(t *testing.T, m *Manager, vols []float64, fs []*Node, k int) {
	t.Helper()
	chain := mulAddKChain(m, vols, fs, k)
	want := m.Zero()
	if len(chain) > 0 {
		want = chain[len(chain)-1]
	}
	if got := m.SumMulK(vols, fs, k); got != want {
		t.Fatalf("SumMulK(%d operands, k=%d) = %s, want the chain's %s", len(fs), k, m.String(got), m.String(want))
	}
	unfused := m.Zero()
	if ref := refChain(m, vols, fs); len(ref) > 0 {
		unfused = ref[len(ref)-1]
	}
	if k < 0 {
		if want != unfused {
			t.Fatalf("k=%d: the chain is not the reference's unreduced chain", k)
		}
	} else if red := m.KReduce(unfused, k); want != red {
		t.Fatalf("SumMulK(%d operands, k=%d) = %s, want KReduce of the unfused chain %s", len(fs), k, m.String(want), m.String(red))
	}
	his := m.PrefixMaxK(vols, fs, k)
	if len(his) != len(fs) {
		t.Fatalf("PrefixMaxK returned %d maxima for %d operands", len(his), len(fs))
	}
	for i, tau := range chain {
		if _, hi := m.Range(tau); his[i] != hi {
			t.Fatalf("PrefixMaxK(k=%d)[%d] = %v, want Range of the chain's prefix %v", k, i, his[i], hi)
		}
	}
}

func testSumKernels(t *testing.T, seed int64) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 12; trial++ {
		for _, count := range []int{0, 1, 2, 50} {
			vols, fs := sumOperands(m, r, n, count)
			for _, k := range []int{0, 1, 2, 3, n, n + 5, -1} {
				checkSumKernels(t, m, vols, fs, k)
			}
		}
	}
}

func TestSumMulKMatchesChain(t *testing.T) {
	testSumKernels(t, 61)
}

// TestSumMulKTinyTables reruns the oracle on computed tables pinned at two
// entries: the chain then recomputes almost everything, the n-ary walk uses
// no table at all, and both must still meet at the same canonical nodes.
func TestSumMulKTinyTables(t *testing.T) {
	defer setTableMode(tablesTwoEntries)()
	testSumKernels(t, 62)
}

// TestSumMulKShortcutOperands pins the shapes the binary kernel answers by
// shortcut — every operand zero, every weight one, a leading run of zeros —
// where the chain never evaluates acc + w·f at all.
func TestSumMulKShortcutOperands(t *testing.T) {
	const n = 5
	m := newMgr(t, n)
	x, y := m.Var(1), m.And(m.Var(0), m.Var(3))
	third := m.Mul(m.Or(m.Var(2), m.Var(4)), m.Const(1.0/3))
	cases := []struct {
		vols []float64
		fs   []*Node
	}{
		{[]float64{3, 4}, []*Node{m.Zero(), m.Zero()}},
		{[]float64{0, 0, 0}, []*Node{x, y, third}},
		{[]float64{1, 1, 1}, []*Node{x, y, third}},
		{[]float64{0, 7, 1}, []*Node{x, m.One(), m.One()}},
		{[]float64{1.0 / 7, 1.0 / 7, 1.0 / 7}, []*Node{third, third, third}},
	}
	for _, c := range cases {
		for k := -1; k <= n+1; k++ {
			checkSumKernels(t, m, c.vols, c.fs, k)
		}
	}
}

// TestSumMulKEvalAgreement is the semantic face of the contract: on every
// assignment within the budget the result is the in-order float fold of
// the operands' values — the same bits, not a tolerance.
func TestSumMulKEvalAgreement(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		vols, fs := sumOperands(m, r, n, 9)
		k := r.Intn(n)
		sum := m.SumMulK(vols, fs, k)
		if got := m.MaxFailuresOnPath(sum); got > k {
			t.Fatalf("SumMulK(k=%d) keeps a path with %d failures", k, got)
		}
		allAssignments(n, func(assign []bool) {
			if failures(assign) > k {
				return
			}
			want := 0.0
			for i, f := range fs {
				want += float64(vols[i] * m.Eval(f, assign))
			}
			if got := m.Eval(sum, assign); got != want {
				t.Fatalf("SumMulK(k=%d) at %v: %v, want %v", k, assign, got, want)
			}
		})
	}
}

// TestSumMulKCountsCuts: a spent budget on a non-constant state is a fusion
// cut like the binary kernels', and the walk probes no computed table.
func TestSumMulKCountsCuts(t *testing.T) {
	m := newMgr(t, 4)
	fs := []*Node{m.Var(0), m.And(m.Var(1), m.Var(2)), m.Var(3)}
	before := m.Stats()
	m.SumMulK([]float64{2, 3, 5}, fs, 1)
	after := m.Stats()
	if after.FusionCuts == before.FusionCuts {
		t.Fatal("SumMulK at k=1 over four variables recorded no fusion cut")
	}
	if after.Fused != before.Fused || after.KReduce != before.KReduce {
		t.Fatalf("SumMulK probed a computed table: %+v -> %+v", before, after)
	}
	created := after.Created
	m.PrefixMaxK([]float64{2, 3, 5}, fs, 1)
	if m.Stats().Created != created {
		t.Fatal("PrefixMaxK built a node")
	}
}

// sumWorkload builds operands wide enough that one walk polls the interrupt
// hook and creates hundreds of nodes: one guard per pair of variables.
func sumWorkload(m *Manager, n int) ([]float64, []*Node) {
	var vols []float64
	var fs []*Node
	for i := 0; i+1 < n; i++ {
		fs = append(fs, m.Or(m.Var(i), m.Var(i+1)))
		vols = append(vols, 1+float64(i)/7)
	}
	return vols, fs
}

// TestSumKernelsGoverned: an interrupt and a node-budget breach raised
// inside the n-ary walks unwind as the typed errors of every other
// operation, and leave a manager that still computes the right node.
func TestSumKernelsGoverned(t *testing.T) {
	const n, k = 100, 2
	m := newMgr(t, n)
	vols, fs := sumWorkload(m, n)
	want := mulAddKChain(m, vols, fs, k)[len(fs)-1]
	_, wantHi := m.Range(want)

	cause := errors.New("stop")
	run := map[string]func(m *Manager, vols []float64, fs []*Node){
		"SumMulK":    func(m *Manager, vols []float64, fs []*Node) { m.SumMulK(vols, fs, k) },
		"PrefixMaxK": func(m *Manager, vols []float64, fs []*Node) { m.PrefixMaxK(vols, fs, k) },
	}
	for name, op := range run {
		m2 := newMgr(t, n)
		vols2, fs2 := sumWorkload(m2, n)
		m2.SetInterrupt(func() error { return cause })
		if err := Guard(func() { op(m2, vols2, fs2) }); !errors.Is(err, cause) {
			t.Fatalf("%s under a firing interrupt: err = %v, want the hook's error", name, err)
		}
		m2.SetInterrupt(nil)
		if got := m2.SumMulK(vols2, fs2, k); m2.String(got) != m.String(want) {
			t.Fatalf("%s: manager inconsistent after the interrupt", name)
		}
		if his := m2.PrefixMaxK(vols2, fs2, k); his[len(his)-1] != wantHi {
			t.Fatalf("%s: PrefixMaxK after the interrupt = %v, want %v", name, his[len(his)-1], wantHi)
		}
	}

	m3 := newMgr(t, n)
	vols3, fs3 := sumWorkload(m3, n)
	m3.SetNodeBudget(m3.Stats().Live + 10)
	err := Guard(func() { m3.SumMulK(vols3, fs3, k) })
	if !errors.Is(err, govern.ErrNodeBudget) {
		t.Fatalf("SumMulK past the node budget: err = %v, want govern.ErrNodeBudget", err)
	}
	// PrefixMaxK builds nothing, so the same budget cannot stop it.
	if err := Guard(func() { m3.PrefixMaxK(vols3, fs3, k) }); err != nil {
		t.Fatalf("PrefixMaxK under a node budget: %v", err)
	}
	m3.SetNodeBudget(0)
	m3.GC(fs3)
	if got := m3.SumMulK(vols3, fs3, k); m3.String(got) != m.String(want) {
		t.Fatal("manager inconsistent after the budget breach")
	}
}

func TestSumMulKMismatchedLengthsPanic(t *testing.T) {
	m := newMgr(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched weight and operand counts must panic")
		}
	}()
	m.SumMulK([]float64{1}, []*Node{m.Var(0), m.Var(1)}, 1)
}

// TestPrefixMaxKEmpty: no operands, no maxima.
func TestPrefixMaxKEmpty(t *testing.T) {
	m := newMgr(t, 2)
	if got := m.PrefixMaxK(nil, nil, 1); len(got) != 0 {
		t.Fatalf("PrefixMaxK of nothing = %v", got)
	}
	if got := m.PrefixMaxK([]float64{2}, []*Node{m.NVar(0)}, 1); got[0] != 2 {
		t.Fatalf("PrefixMaxK(2·x̄0, k=1) = %v, want 2", got)
	}
}
