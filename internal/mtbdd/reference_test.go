package mtbdd

import (
	"math/rand"
	"testing"
)

// The independent reference the kernels are held to: Bryant's APPLY with no
// budget, no shortcut and no computed table, and the folds built on it. The
// plain operators are the fused kernels at an unbounded budget (kernels.go),
// so a kernel compared with Add or Mul would be compared with itself.

// refApply returns op(f, g): the node testing the smaller root variable over
// the results of the two cofactor pairs, down to op on two terminals. Its
// memo lives for one call and keeps the walk linear in the operand pairs.
func refApply(m *Manager, op opcode, f, g *Node) *Node {
	type pair struct{ f, g *Node }
	memo := make(map[pair]*Node)
	var rec func(f, g *Node) *Node
	rec = func(f, g *Node) *Node {
		if f.IsTerminal() && g.IsTerminal() {
			return m.Const(op.eval(f.Value, g.Value))
		}
		if r, ok := memo[pair{f, g}]; ok {
			return r
		}
		level := min(f.Level, g.Level)
		fLo, fHi := f, f
		if f.Level == level {
			fLo, fHi = m.node(f.lo), m.node(f.hi)
		}
		gLo, gHi := g, g
		if g.Level == level {
			gLo, gHi = m.node(g.lo), m.node(g.hi)
		}
		r := m.mk(level, rec(fLo, gLo), rec(fHi, gHi))
		memo[pair{f, g}] = r
		return r
	}
	return rec(f, g)
}

// refMulAdd is acc + w·f, the product rounded on its own.
func refMulAdd(m *Manager, acc, w, f *Node) *Node {
	return refApply(m, opAdd, acc, refApply(m, opMul, w, f))
}

// refFold combines fs as a balanced tree under op, 0 for none: AddNK's
// association.
func refFold(m *Manager, op opcode, fs []*Node) *Node {
	switch len(fs) {
	case 0:
		return m.zero
	case 1:
		return fs[0]
	}
	mid := len(fs) / 2
	return refApply(m, op, refFold(m, op, fs[:mid]), refFold(m, op, fs[mid:]))
}

// refChain is the weighted sum Σ vols[i]·fs[i] folded in operand order, one
// node per prefix.
func refChain(m *Manager, vols []float64, fs []*Node) []*Node {
	out := make([]*Node, len(fs))
	acc := m.zero
	for i, f := range fs {
		acc = refMulAdd(m, acc, m.Const(vols[i]), f)
		out[i] = acc
	}
	return out
}

// TestPlainOperatorsMatchReference: every plain operator, and every *K entry
// point at a negative budget, returns the reference's node pointer for
// pointer — the plain operators are the kernels at an unbounded budget, and
// nothing of the budget (cut, merge, reduction of a shortcut) leaks into
// them.
func TestPlainOperatorsMatchReference(t *testing.T) {
	const n = 7
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(61))
	plain := []struct {
		name  string
		op    opcode
		plain func(f, g *Node) *Node
		fused func(f, g *Node, k int) *Node
		guard bool // defined on {0,1} operands only
	}{
		{"Add", opAdd, m.Add, m.AddK, false},
		{"Sub", opSub, m.Sub, nil, false},
		{"Mul", opMul, m.Mul, m.MulK, false},
		{"Div", opDiv, nil, m.DivK, false},
		{"Min", opMin, m.Min, m.MinK, false},
		{"Max", opMax, m.Max, m.MaxK, false},
		{"And", opAnd, m.And, m.AndK, true},
		{"Or", opOr, m.Or, m.OrK, true},
	}
	for trial := 0; trial < 40; trial++ {
		f, g := randomMTBDD(m, r, n, 5), randomMTBDD(m, r, n, 5)
		gf, gg := randomGuard(m, r, n, 4), randomGuard(m, r, n, 4)
		for _, c := range plain {
			a, b := f, g
			if c.guard {
				a, b = gf, gg
			}
			want := refApply(m, c.op, a, b)
			if c.plain != nil {
				if got := c.plain(a, b); got != want {
					t.Fatalf("trial %d: %s = %s, want %s", trial, c.name, m.String(got), m.String(want))
				}
			}
			for _, k := range []int{-1, -5} {
				if c.fused != nil {
					if got := c.fused(a, b, k); got != want {
						t.Fatalf("trial %d: %sK(k=%d) = %s, want %s", trial, c.name, k, m.String(got), m.String(want))
					}
				}
			}
		}
		if got, want := m.Scale(2.5, f), refApply(m, opMul, m.Const(2.5), f); got != want {
			t.Fatalf("trial %d: Scale = %s, want %s", trial, m.String(got), m.String(want))
		}
		acc := randomMTBDD(m, r, n, 4)
		if got, want := m.MulAddK(acc, f, g, -1), refMulAdd(m, acc, f, g); got != want {
			t.Fatalf("trial %d: MulAddK(k=-1) = %s, want %s", trial, m.String(got), m.String(want))
		}
		if m.KReduce(f, -1) != f {
			t.Fatalf("trial %d: KReduce(f, -1) is not f", trial)
		}
		guards := []*Node{gf, gg, m.And(gf, m.Not(gg)), m.Or(m.Not(gf), gg), m.Var(r.Intn(n))}[:1+r.Intn(5)]
		if got, want := m.AddNK(guards, -1), refFold(m, opAdd, guards); got != want {
			t.Fatalf("trial %d: AddNK(k=-1) = %s, want %s", trial, m.String(got), m.String(want))
		}
		vols, ops := sumOperands(m, r, n, r.Intn(10))
		chain := refChain(m, vols, ops)
		want := m.Zero()
		if len(chain) > 0 {
			want = chain[len(chain)-1]
		}
		if got := m.SumMulK(vols, ops, -1); got != want {
			t.Fatalf("trial %d: SumMulK(k=-1) = %s, want %s", trial, m.String(got), m.String(want))
		}
		for i, hi := range m.PrefixMaxK(vols, ops, -1) {
			if _, want := m.Range(chain[i]); hi != want {
				t.Fatalf("trial %d: PrefixMaxK(k=-1)[%d] = %v, want %v", trial, i, hi, want)
			}
		}
	}
	if st := m.Stats(); st.FusionCuts != 0 || st.KReduceCalls != 0 {
		t.Fatalf("an unbounded budget cut %d subproblems and counted %d KReduce calls", st.FusionCuts, st.KReduceCalls)
	}
}
