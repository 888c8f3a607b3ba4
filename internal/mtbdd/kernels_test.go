package mtbdd

import (
	"bytes"
	"math/rand"
	"testing"
)

// The contract every fused kernel must honor: byte-for-byte agreement
// with the composed build-then-reduce pipeline it replaces, KReduce of the
// reference APPLY (reference_test.go). Because both sides hash-cons into the
// same unique table, agreement is checked as exact *Node identity — the
// strongest form, and the one the engine's "reports unchanged" guarantee
// rests on.

// binaryKernel pairs one fused operator with its composed form.
type binaryKernel struct {
	name     string
	fused    func(m *Manager, f, g *Node, k int) *Node
	composed func(m *Manager, f, g *Node) *Node
}

// arithKernels accept arbitrary multi-terminal operands.
var arithKernels = []binaryKernel{
	{"AddK", (*Manager).AddK, ref(opAdd)},
	{"MulK", (*Manager).MulK, ref(opMul)},
	{"DivK", (*Manager).DivK, ref(opDiv)},
	{"MinK", (*Manager).MinK, ref(opMin)},
	{"MaxK", (*Manager).MaxK, ref(opMax)},
}

// ref is the reference APPLY of op.
func ref(op opcode) func(m *Manager, f, g *Node) *Node {
	return func(m *Manager, f, g *Node) *Node { return refApply(m, op, f, g) }
}

// boolKernels require {0,1} guard operands — their shortcuts (g∧1 = g,
// g∨0 = g, ...) are identities only on guards, exactly like the plain
// And/Or they fuse.
var boolKernels = []binaryKernel{
	{"AndK", (*Manager).AndK, ref(opAnd)},
	{"OrK", (*Manager).OrK, ref(opOr)},
}

// randomGuard builds a random {0,1} MTBDD — the edge-up/selection guard
// shapes the boolean kernels are fed by the engine.
func randomGuard(m *Manager, r *rand.Rand, n, depth int) *Node {
	if depth == 0 || r.Intn(4) == 0 {
		g := m.Var(r.Intn(n))
		if r.Intn(2) == 0 {
			g = m.Not(g)
		}
		return g
	}
	a := randomGuard(m, r, n, depth-1)
	b := randomGuard(m, r, n, depth-1)
	switch r.Intn(3) {
	case 0:
		return m.And(a, b)
	case 1:
		return m.Or(a, b)
	default:
		return m.Or(m.And(a, m.Not(b)), m.And(m.Not(a), b))
	}
}

// TestFusedBinaryKernelsMatchComposed drives every binary kernel over
// random operands and every budget from 0 through past NumVars,
// requiring the exact canonical node the composed pipeline builds.
func TestFusedBinaryKernelsMatchComposed(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(51))
	check := func(trial int, bk binaryKernel, f, g *Node) {
		t.Helper()
		for k := 0; k <= n+2; k++ {
			want := m.KReduce(bk.composed(m, f, g), k)
			if got := bk.fused(m, f, g, k); got != want {
				t.Fatalf("%s(f,g,%d) = %s, want %s (trial %d)",
					bk.name, k, m.String(got), m.String(want), trial)
			}
		}
		// Negative budget is the reduction-disabled ablation: the
		// kernel must build the unreduced result.
		if got, want := bk.fused(m, f, g, -1), bk.composed(m, f, g); got != want {
			t.Fatalf("%s(f,g,-1) = %s, want unreduced %s", bk.name, m.String(got), m.String(want))
		}
	}
	for trial := 0; trial < 30; trial++ {
		f := randomMTBDD(m, r, n, 4)
		g := randomMTBDD(m, r, n, 4)
		for _, bk := range arithKernels {
			check(trial, bk, f, g)
		}
		gf := randomGuard(m, r, n, 4)
		gg := randomGuard(m, r, n, 4)
		for _, bk := range boolKernels {
			check(trial, bk, gf, gg)
		}
	}
}

// TestFusedKernelEvalAgreement is the semantic (Lemma 1) face of the
// same contract: the fused result agrees with the exact pointwise
// operation on every assignment with at most k failures.
func TestFusedKernelEvalAgreement(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		f := randomMTBDD(m, r, n, 4)
		g := randomMTBDD(m, r, n, 4)
		k := r.Intn(n)
		sum := m.AddK(f, g, k)
		prod := m.MulK(f, g, k)
		allAssignments(n, func(assign []bool) {
			if failures(assign) > k {
				return
			}
			fv, gv := m.Eval(f, assign), m.Eval(g, assign)
			if got := m.Eval(sum, assign); got != fv+gv {
				t.Fatalf("AddK k=%d at %v: %v, want %v", k, assign, got, fv+gv)
			}
			if got := m.Eval(prod, assign); got != fv*gv {
				t.Fatalf("MulK k=%d at %v: %v, want %v", k, assign, got, fv*gv)
			}
		})
	}
}

// TestFusedKernelsEdgeBudgets pins the two budget extremes: k=0
// collapses everything to the all-alive terminal, and k >= NumVars makes
// the reduction the identity, so the kernel must return exactly the
// reference operator's node.
func TestFusedKernelsEdgeBudgets(t *testing.T) {
	const n = 5
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		f := randomMTBDD(m, r, n, 4)
		g := randomMTBDD(m, r, n, 4)
		z := m.AddK(f, g, 0)
		if !z.IsTerminal() {
			t.Fatalf("AddK(f,g,0) must be a terminal, got %s", m.String(z))
		}
		if want := m.EvalAllAlive(f) + m.EvalAllAlive(g); z.Value != want {
			t.Fatalf("AddK(f,g,0) = %v, want all-alive sum %v", z.Value, want)
		}
		for _, k := range []int{n, n + 1, n + 7} {
			if got, want := m.AddK(f, g, k), refApply(m, opAdd, f, g); got != want {
				t.Fatalf("AddK with saturating budget %d diverged from the reference Add", k)
			}
		}
	}
}

// TestMulAddMatchesComposed: the unbudgeted multiply-accumulate must be
// node-identical to the reference acc + w·f, since both compute the same
// float expressions.
func TestMulAddMatchesComposed(t *testing.T) {
	const n = 5
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(54))
	for trial := 0; trial < 30; trial++ {
		acc := randomMTBDD(m, r, n, 3)
		w := randomMTBDD(m, r, n, 3)
		f := randomMTBDD(m, r, n, 3)
		if got, want := m.MulAddK(acc, w, f, -1), refMulAdd(m, acc, w, f); got != want {
			t.Fatalf("MulAddK(k=-1) = %s, want %s", m.String(got), m.String(want))
		}
	}
	// Identity shortcuts.
	x := m.Var(2)
	if m.MulAddK(x, m.Zero(), m.One(), -1) != x || m.MulAddK(x, m.One(), m.Zero(), -1) != x {
		t.Fatal("MulAddK(k=-1) with a zero factor must return acc unchanged")
	}
}

// TestMulAddKMatchesComposed is the fused ternary contract: exact node
// identity with Reduce(acc + w*f) across budgets, including the
// shortcut edges (zero/one operands, all-terminal, k=0, negative k).
func TestMulAddKMatchesComposed(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		acc := randomMTBDD(m, r, n, 3)
		w := randomMTBDD(m, r, n, 3)
		f := randomMTBDD(m, r, n, 3)
		for k := 0; k <= n+1; k++ {
			want := m.KReduce(refMulAdd(m, acc, w, f), k)
			if got := m.MulAddK(acc, w, f, k); got != want {
				t.Fatalf("MulAddK(k=%d) = %s, want %s (trial %d)",
					k, m.String(got), m.String(want), trial)
			}
		}
		if got, want := m.MulAddK(acc, w, f, -1), refMulAdd(m, acc, w, f); got != want {
			t.Fatal("MulAddK(-1) must build the unreduced acc + w·f")
		}
	}
	// Shortcut edges against the composed form.
	g := m.Or(m.Var(0), m.Var(3))
	for k := 0; k <= 3; k++ {
		if m.MulAddK(g, m.Zero(), m.Var(1), k) != m.KReduce(g, k) {
			t.Fatal("zero weight must reduce to KReduce(acc)")
		}
		if m.MulAddK(g, m.One(), m.Var(1), k) != m.AddK(g, m.Var(1), k) {
			t.Fatal("unit weight must reduce to AddK(acc, f)")
		}
		if m.MulAddK(m.Zero(), g, m.Var(1), k) != m.MulK(g, m.Var(1), k) {
			t.Fatal("zero acc must reduce to MulK(w, f)")
		}
	}
}

// TestAddNMatchesFold: for exact-valued operands (selection guards and
// small halves of integers — the only inputs the engine feeds it) the
// unbudgeted balanced sum must agree with the left fold node-for-node, and
// so must the reference's balanced disjunction.
func TestAddNMatchesFold(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(56))
	for trial := 0; trial < 20; trial++ {
		var fs []*Node
		for i := 0; i < 1+r.Intn(7); i++ {
			// {0,1} guards: sums stay small integers, exactly associative.
			g := m.Var(r.Intn(n))
			if r.Intn(2) == 0 {
				g = m.Not(g)
			}
			fs = append(fs, m.And(g, m.Var(r.Intn(n))))
		}
		fold := m.Zero()
		for _, f := range fs {
			fold = m.Add(fold, f)
		}
		if got := m.AddNK(fs, -1); got != fold {
			t.Fatalf("AddNK(k=-1) over %d guards = %s, want fold %s", len(fs), m.String(got), m.String(fold))
		}
		orFold := m.Zero()
		for _, f := range fs {
			orFold = m.Or(orFold, f)
		}
		if got := refFold(m, opOr, fs); got != orFold {
			t.Fatalf("the balanced disjunction diverged from the Or fold")
		}
	}
	if m.AddNK(nil, -1) != m.Zero() || refFold(m, opOr, nil) != m.Zero() {
		t.Fatal("an empty sum or disjunction must be zero")
	}
	one := m.One()
	if m.AddNK([]*Node{one}, -1) != one || refFold(m, opOr, []*Node{one}) != one {
		t.Fatal("a singleton sum or disjunction must be the element itself")
	}
}

// TestAddNKMatchesComposed: the k-budgeted balanced sum must equal
// KReduce of the reference balanced sum, for guard inputs, at every budget.
func TestAddNKMatchesComposed(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		var fs []*Node
		for i := 0; i < 1+r.Intn(7); i++ {
			g := m.Var(r.Intn(n))
			if r.Intn(2) == 0 {
				g = m.Not(g)
			}
			fs = append(fs, m.And(g, m.Var(r.Intn(n))))
		}
		for k := 0; k <= n+1; k++ {
			want := m.KReduce(refFold(m, opAdd, fs), k)
			if got := m.AddNK(fs, k); got != want {
				t.Fatalf("AddNK(%d guards, k=%d) = %s, want %s",
					len(fs), k, m.String(got), m.String(want))
			}
		}
		if m.AddNK(fs, -1) != refFold(m, opAdd, fs) {
			t.Fatal("AddNK(-1) must build the unreduced balanced sum")
		}
	}
	for k := 0; k <= 2; k++ {
		if m.AddNK(nil, k) != m.Zero() {
			t.Fatal("empty AddNK must be zero")
		}
		f := m.And(m.Var(0), m.Var(1))
		if m.AddNK([]*Node{f}, k) != m.KReduce(f, k) {
			t.Fatal("singleton AddNK must be KReduce of the element")
		}
	}
}

// TestFusedKernelsAfterGC: garbage collection rebuilds the unique table
// and drops the fused cache; the kernels must keep producing the same
// canonical results afterwards.
func TestFusedKernelsAfterGC(t *testing.T) {
	const n = 6
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(58))
	f := randomMTBDD(m, r, n, 4)
	g := randomMTBDD(m, r, n, 4)
	before := m.AddK(f, g, 2)
	m.GC([]*Node{f, g, before})
	if got := m.AddK(f, g, 2); got != before {
		t.Fatalf("AddK changed across GC: %s vs %s", m.String(got), m.String(before))
	}
	if got, want := m.MulAddK(before, f, g, 2), m.KReduce(refMulAdd(m, before, f, g), 2); got != want {
		t.Fatal("MulAddK diverged from composed form after GC")
	}
}

// kernelResults builds, over n variables from seed, results of every kernel
// that cuts on the all-alive value — AddK, MulK, MulAddK, KReduce and
// SumMulK — at budgets 0 through 3.
func kernelResults(m *Manager, seed int64, n int) []*Node {
	r := rand.New(rand.NewSource(seed))
	var out []*Node
	for k := 0; k <= 3; k++ {
		a, b, c := randomMTBDD(m, r, n, 6), randomMTBDD(m, r, n, 6), randomMTBDD(m, r, n, 6)
		g := randomGuard(m, r, n, 4)
		out = append(out, m.AddK(a, b, k), m.MulK(a, c, k), m.MulAddK(a, g, c, k), m.KReduce(m.Add(b, c), k),
			m.SumMulK([]float64{1.5, 0.25, 3}, []*Node{a, g, c}, k))
	}
	return out
}

// allAliveRef is F(1,…,1) by the hi-chain walk the carried value replaced.
func allAliveRef(m *Manager, n *Node) float64 {
	for !n.IsTerminal() {
		n = m.node(n.hi)
	}
	return n.Value
}

// checkCarried fails unless every node reachable from roots carries its
// all-alive value.
func checkCarried(t *testing.T, where string, m *Manager, roots []*Node) {
	t.Helper()
	seen := m.newBitset()
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen.visit(n.id) {
			return
		}
		if want := allAliveRef(m, n); n.Value != want {
			t.Fatalf("%s: node %d at level %d carries %v, its hi chain ends at %v", where, n.id, n.Level, n.Value, want)
		}
		if !n.IsTerminal() {
			walk(m.node(n.lo))
			walk(m.node(n.hi))
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

// TestAllAliveValueCarried: every node the kernels build carries its
// all-alive value — the field the budget-spent cuts read — and keeps it
// through a GC and through a snapshot replay, plain and decoded, though
// the format records 0 for an internal node.
func TestAllAliveValueCarried(t *testing.T) {
	const n = 10
	for seed := int64(1); seed <= 20; seed++ {
		m := newMgr(t, n)
		roots := kernelResults(m, seed, n)
		checkCarried(t, "built", m, roots)
		m.GC(roots)
		checkCarried(t, "after GC", m, roots)
		roots = append(roots, kernelResults(m, seed+100, n)...)
		checkCarried(t, "built after GC", m, roots)

		snap, at := NewSnapshot(m, roots)
		dst := newMgr(t, n)
		table := dst.ImportSnapshot(snap)
		checkCarried(t, "imported", dst, table)
		for i, r := range roots {
			if got := table[at[i]].Value; got != r.Value {
				t.Fatalf("seed %d root %d: imported with all-alive value %v, source %v", seed, i, got, r.Value)
			}
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newMgr(t, n)
		checkCarried(t, "decoded", fresh, fresh.ImportSnapshot(dec))
	}
}
