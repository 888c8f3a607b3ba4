package mtbdd

// Fused MTBDD kernels: k-budgeted operators that construct the KREDUCEd
// result directly, without materializing the unreduced intermediate.
//
// The dominant pattern in symbolic traffic execution is a pairwise
// Add/Mul immediately wrapped in KReduce: the full intermediate MTBDD is
// built only to have most of it discarded by the reduction. The paper's
// Lemmas 1-2 (§5.2) justify pruning during construction instead: the
// k-failure-equivalence class of op(F, G) is determined by the values of
// F and G on assignments with at most k zeros, so the recursion can
// thread the remaining zero-budget and collapse both cofactors to their
// all-alive value the moment it is spent.
//
// The recursion mirrors kreduce exactly, with γ_k(F, G) ≡ β_k(F op G):
//
//	γ_0(F, G) = F(1,...,1) op G(1,...,1)
//	γ_k(c, d) = c op d                    (terminals)
//	γ_k(F, G) = hiK                       if β_{k-1}(hiK) == β_{k-1}(Lo)
//	γ_k(F, G) = x·hiK + x̄·β_{k-1}(Lo)     otherwise
//
// where x is the smaller root variable of F and G, hiK = γ_k(F|x=1, G|x=1)
// and β_{k-1}(Lo) = γ_{k-1}(F|x=0, G|x=0). The merge test asks β_{k-1} of
// the result hiK, not of the Hi operands: hiK agrees with F|x=1 op G|x=1
// on every assignment with at most k zeros, hence on every one with at
// most k-1, so by Lemma 1 β_{k-1}(hiK) is the very node a second walk of
// the Hi operands at budget k-1 would build (join, kreduce.go). Each
// operand pair is walked once per budget step; the unary walk of hiK is
// over a result already built, and stops at once on a terminal.
//
// Because restriction commutes with pointwise operations
// (H|x=v = F|x=v op G|x=v for H = F op G), this recursion and KReduce(F op G, k) compute
// structurally identical results: both produce the canonical β_k
// representative, so hash-consing yields the very same *Node. That exact
// node equality is what lets the engine swap Reduce(Add(...)) call sites
// for AddK without perturbing report output by a single byte; the
// kernels difftest oracle and FuzzKernels pin it.
//
// A negative budget means "no reduction" (the ablation mode of FailVars):
// the same recursion runs with no zero-budget cut, a Lo branch that keeps
// the budget and no merge test, and returns a shortcut's result as it is.
// That is Bryant's APPLY, so the plain operators (ops.go) are these kernels
// at an unbounded budget, sharing their computed table.

// unbounded is the budget of the plain operators: no reduction.
const unbounded int32 = -1

// lower is the budget of a Lo branch, which spends one failure; every
// negative budget is unbounded.
func lower(k int32) int32 {
	if k < 0 {
		return k
	}
	return k - 1
}

// AddK returns KReduce(f+g, k) without building the unreduced sum.
func (m *Manager) AddK(f, g *Node, k int) *Node { return m.applyK(opAdd, f, g, int32(k)) }

// MulK returns KReduce(f*g, k) without building the unreduced product.
func (m *Manager) MulK(f, g *Node, k int) *Node { return m.applyK(opMul, f, g, int32(k)) }

// DivK returns KReduce(f/g, k), with the convention that any division by a
// zero denominator yields 0. This matches the paper's ECMP encoding
// c_r = s_r / Σ s_r': wherever the denominator (number of selected rules)
// is 0, the numerator is 0 too, and the traffic ratio is 0.
func (m *Manager) DivK(f, g *Node, k int) *Node { return m.applyK(opDiv, f, g, int32(k)) }

// MinK returns KReduce(min(f,g), k).
func (m *Manager) MinK(f, g *Node, k int) *Node { return m.applyK(opMin, f, g, int32(k)) }

// MaxK returns KReduce(max(f,g), k).
func (m *Manager) MaxK(f, g *Node, k int) *Node { return m.applyK(opMax, f, g, int32(k)) }

// AndK returns KReduce(f∧g, k) for {0,1} guards.
func (m *Manager) AndK(f, g *Node, k int) *Node { return m.applyK(opAnd, f, g, int32(k)) }

// OrK returns KReduce(f∨g, k) for {0,1} guards.
func (m *Manager) OrK(f, g *Node, k int) *Node { return m.applyK(opOr, f, g, int32(k)) }

// applyK is Bryant's APPLY fused with the KREDUCE dynamic program: the
// remaining zero-budget threads through the recursion and both operands
// collapse to their all-alive values once it is spent.
func (m *Manager) applyK(op opcode, f, g *Node, k int32) *Node {
	if r := m.shortcut(op, f, g); r != nil {
		return m.kreduce(r, k)
	}
	if f.IsTerminal() && g.IsTerminal() {
		return m.Const(op.eval(f.Value, g.Value))
	}
	if k == 0 {
		// Budget spent: the whole subproblem — which an unbounded budget
		// would expand into an MTBDD over every variable below — collapses to
		// one terminal. This is where the fusion saves its work.
		// Every node carries its all-alive value, so the cut reads two
		// fields.
		m.fusionCuts++
		return m.Const(op.eval(f.Value, g.Value))
	}
	a, b := f, g
	if op.commutes() && a.id > b.id {
		a, b = b, a
	}
	e := m.fusedTbl.slot(op, a.id, b.id, 0, k)
	if e.is(op, a.id, b.id, 0, k) {
		m.fusedHits++
		return m.node(e.res)
	}
	m.fusedMisses++
	m.checkInterrupt()

	level := f.Level
	if g.Level < level {
		level = g.Level
	}
	fLo, fHi := f, f
	if f.Level == level {
		fLo, fHi = m.node(f.lo), m.node(f.hi)
	}
	gLo, gHi := g, g
	if g.Level == level {
		gLo, gHi = m.node(g.lo), m.node(g.hi)
	}
	hiK := m.applyK(op, fHi, gHi, k)
	r := m.join(level, m.applyK(op, fLo, gLo, lower(k)), hiK, k)
	*e = fusedEntry{a.id, b.id, 0, k, op, r.id}
	return r
}

// MulAddK returns KReduce(acc + w*f, k) as one fused ternary DFS: the
// weighted-accumulate at the heart of ECMP splitting and SR path
// weighting, without ever materializing either the product w*f or the
// unreduced sum. (A whole weighted sum is SumMulK's job, sumk.go: a chain
// of these re-walks the running sum once per operand.)
//
// A negative budget returns Add(acc, Mul(w, f)), the chain's plain form.
func (m *Manager) MulAddK(acc, w, f *Node, k int) *Node {
	if k < 0 {
		return m.Add(acc, m.Mul(w, f))
	}
	return m.mulAddK(acc, w, f, int32(k))
}

func (m *Manager) mulAddK(acc, w, f *Node, k int32) *Node {
	// Algebraic shortcuts first, mirroring what the composed
	// Add/Mul/Reduce pipeline would short-circuit.
	if w == m.zero || f == m.zero {
		return m.kreduce(acc, k)
	}
	if w == m.one {
		return m.applyK(opAdd, acc, f, k)
	}
	if f == m.one {
		return m.applyK(opAdd, acc, w, k)
	}
	if acc == m.zero {
		return m.applyK(opMul, w, f, k)
	}
	// The product is rounded on its own (the explicit conversion forbids a
	// fused multiply-add): the shortcuts above and the composed Mul-then-Add
	// round twice, and every path must produce the same terminal.
	if acc.IsTerminal() && w.IsTerminal() && f.IsTerminal() {
		return m.Const(acc.Value + float64(w.Value*f.Value))
	}
	if k == 0 {
		m.fusionCuts++
		return m.Const(acc.Value + float64(w.Value*f.Value))
	}
	// The product operands commute; canonicalize their cache order.
	x, y := w, f
	if x.id > y.id {
		x, y = y, x
	}
	e := m.fusedTbl.slot(opMulAdd, acc.id, x.id, y.id, k)
	if e.is(opMulAdd, acc.id, x.id, y.id, k) {
		m.fusedHits++
		return m.node(e.res)
	}
	m.fusedMisses++
	m.checkInterrupt()

	level := acc.Level
	if w.Level < level {
		level = w.Level
	}
	if f.Level < level {
		level = f.Level
	}
	aLo, aHi := acc, acc
	if acc.Level == level {
		aLo, aHi = m.node(acc.lo), m.node(acc.hi)
	}
	wLo, wHi := w, w
	if w.Level == level {
		wLo, wHi = m.node(w.lo), m.node(w.hi)
	}
	fLo, fHi := f, f
	if f.Level == level {
		fLo, fHi = m.node(f.lo), m.node(f.hi)
	}
	hiK := m.mulAddK(aHi, wHi, fHi, k)
	r := m.join(level, m.mulAddK(aLo, wLo, fLo, k-1), hiK, k)
	*e = fusedEntry{acc.id, x.id, y.id, k, opMulAdd, r.id}
	return r
}

// AddNK returns KReduce(Σfs, k) as a balanced tree of fused k-budgeted
// additions: log-depth instead of a linear chain, and every intermediate
// already reduced, so the peak node count tracks the reduced result instead
// of the raw chain. Because float addition is only associative when values
// are exact, the engine feeds it only sums of selection guards
// (small-integer terminals); fractional accumulations are summed in order,
// by the pairwise kernels or by SumMulK, which keep the exact legacy
// rounding.
func (m *Manager) AddNK(fs []*Node, k int) *Node { return m.addNK(fs, int32(k)) }

func (m *Manager) addNK(fs []*Node, k int32) *Node {
	switch len(fs) {
	case 0:
		return m.zero
	case 1:
		return m.kreduce(fs[0], k)
	}
	mid := len(fs) / 2
	return m.applyK(opAdd, m.addNK(fs[:mid], k), m.addNK(fs[mid:], k), k)
}
