package mtbdd

import "math"

// The n-ary fused weighted sum: KReduce(Σ_i vols[i]·fs[i], k) in one pass
// over the operand vector, for the per-link load aggregation of the check
// stage (τ_l = Σ_c vol_c·ω_c, paper §4.5).
//
// The binary chain acc = MulAddK(acc, Const(vol_i), f_i, k) re-walks and
// re-hash-conses the whole running sum once per operand just to shift its
// terminals. The n-ary walk visits each in-budget failure scenario of the
// sum once instead: a state is the vector of the operands' cofactors along
// the current path, its variable is the smallest root level among them, and
// only the operands that test that variable are cofactored — in place, from
// an undo log, so a step copies nothing.
//
// All budgets at once. With β_j the KREDUCE of the state's sum at budget j,
// Definition 5.2 reads
//
//	β_0        = the sum with every variable alive
//	β_j        = β_j(Hi)                          if β_{j-1}(Hi) == β_{j-1}(Lo)
//	β_j        = x·β_j(Hi) + x̄·β_{j-1}(Lo)        otherwise
//
// so a state that returns β_0..β_b needs β_0..β_b of its Hi child and
// β_0..β_{b-1} of its Lo child: one visit per child answers the collapse
// test and both cofactors of every budget. The binary kernels get the third
// operand of that test from the fused computed table; here it is already in
// hand, which is why the walk has no table to size, clear or collect.
//
// Float order. The value of a state with every remaining variable alive is
// the in-order fold acc = acc + float64(vols[i]·alive_i) from acc = 0 —
// the very expression the MulAddK chain evaluates at that assignment
// (its shortcuts for a zero operand, a unit weight and a zero accumulator
// are exact identities of it, and KREDUCE of an intermediate never changes
// a value on an assignment with at most k zeros, Lemma 1). β_k is canonical
// in those values, so SumMulK returns the very node the chain returns. The
// explicit float64 conversion forbids fusing the multiply into the add: a
// fused multiply-add rounds once where the chain's shortcut paths round
// twice (DESIGN.md §12).

// SumMulK returns KReduce(Σ_i vols[i]·fs[i], k), summed in operand order:
// the node the chain acc = MulAddK(acc, Const(vols[i]), fs[i], k) from
// acc = 0 returns, built in one walk without the chain's intermediates. A
// negative budget (reduction disabled) folds Add(acc, Mul(w, f)), as
// MulAddK does.
func (m *Manager) SumMulK(vols []float64, fs []*Node, k int) *Node {
	if k < 0 {
		acc := m.zero
		for i, f := range fs {
			acc = m.Add(acc, m.Mul(m.Const(vols[i]), f))
		}
		return acc
	}
	s := m.sumScratch(vols, fs, k)
	defer m.keepSum(s)
	out := make([]*Node, s.budget+1)
	s.build(s.budget, 0, out)
	return out[s.budget]
}

// PrefixMaxK returns, for every prefix of the operand list, the largest
// value the prefix's weighted sum takes on an assignment with at most k
// zeros: out[i] is exactly the upper end of Range(SumMulK(vols[:i+1],
// fs[:i+1], k)) — the terminals of a KREDUCEd MTBDD are its function's
// values on the in-budget assignments (Lemma 2) — found without building a
// node. It is SumMulK's walk with no mk: every in-budget value of the sum is
// the all-alive fold of the state its last failed variable leads to, and the
// fold passes through every prefix sum on its way. A negative budget reads
// the Range of the unreduced chain, over all assignments.
func (m *Manager) PrefixMaxK(vols []float64, fs []*Node, k int) []float64 {
	out := make([]float64, len(fs))
	if k < 0 {
		acc := m.zero
		for i, f := range fs {
			acc = m.Add(acc, m.Mul(m.Const(vols[i]), f))
			_, out[i] = m.Range(acc)
		}
		return out
	}
	for i := range out {
		out[i] = math.Inf(-1)
	}
	s := m.sumScratch(vols, fs, k)
	defer m.keepSum(s)
	s.maxima(s.budget, out)
	return out
}

// sumState is the operand vector of one n-ary walk, cofactored in place. It
// is the manager's walk scratch (Manager.sum): sumScratch fills it for a
// call and keepSum empties it after, so a call allocates no state and a kept
// state pins no node.
type sumState struct {
	m      *Manager
	budget int // k capped at the variable count, beyond which β_k is the identity
	vols   []float64
	cur    []*Node   // each operand's cofactor along the current path
	lvl    []int32   // cur[i].Level, beside it so the level scan touches no node
	alive  []float64 // cur[i] with every remaining variable alive
	undo   []sumUndo // operands cofactored on the current path, innermost last
	frames [][]*Node // per depth: the Hi child's β_0..β_b, then the Lo child's β_0..β_{b-1}
	depth  int       // frames the running call has used
}

// sumUndo remembers one operand as it was before a step cofactored it.
type sumUndo struct {
	i     int
	n     *Node
	alive float64
}

// sumScratch loads the manager's sum state, made on first use, with a
// call's operands.
func (m *Manager) sumScratch(vols []float64, fs []*Node, k int) *sumState {
	if len(vols) != len(fs) {
		panic("mtbdd: weighted sum with mismatched weight and operand counts")
	}
	if n := m.NumVars(); k > n {
		k = n
	}
	if m.sum == nil {
		m.sum = &sumState{m: m}
	}
	s := m.sum
	if s.budget != k {
		// A frame holds 2b+1 slots.
		clear(s.frames)
		s.frames, s.budget = s.frames[:0], k
	}
	s.vols = vols
	s.cur, s.lvl, s.alive = s.cur[:0], s.lvl[:0], s.alive[:0]
	for _, f := range fs {
		s.cur = append(s.cur, f)
		s.lvl = append(s.lvl, f.Level)
		s.alive = append(s.alive, f.Value)
	}
	return s
}

// keepSum empties a call's sum state — every node pointer in it cleared —
// and keeps it for the next call, unless it grew past scratchKeep. The
// kernels defer it, so a walk an interrupt or a budget breach aborted is
// emptied too.
func (m *Manager) keepSum(s *sumState) {
	clear(s.cur)
	clear(s.undo) // entries past its length were cleared by restore
	for _, f := range s.frames[:s.depth] {
		clear(f)
	}
	s.vols, s.cur, s.undo, s.depth = nil, s.cur[:0], s.undo[:0], 0
	if cap(s.cur)+cap(s.undo)+len(s.frames)*(2*s.budget+1) > scratchKeep {
		m.sum = nil
	}
}

// level returns the state's variable: the smallest root level among the
// operands, terminalLevel when every operand is a constant.
func (s *sumState) level() int32 {
	level := terminalLevel
	for _, l := range s.lvl {
		if l < level {
			level = l
		}
	}
	return level
}

// fold is the state's value with every remaining variable alive, summed in
// operand order.
func (s *sumState) fold() float64 {
	acc := 0.0
	for i, v := range s.vols {
		acc += float64(v * s.alive[i])
	}
	return acc
}

func (s *sumState) set(i int, n *Node) {
	s.cur[i], s.lvl[i] = n, n.Level
}

// stepHi moves every operand that tests level to its Hi cofactor, logging
// it, and returns the log mark of the step. All-alive values do not change
// on a Hi step.
func (s *sumState) stepHi(level int32) int {
	mark := len(s.undo)
	for i, l := range s.lvl {
		if l == level {
			n := s.cur[i]
			s.undo = append(s.undo, sumUndo{i, n, s.alive[i]})
			s.set(i, s.m.node(n.hi))
		}
	}
	return mark
}

// flipLo moves the operands of the step at mark from their Hi to their Lo
// cofactors: the only operands whose all-alive value a failure changes.
func (s *sumState) flipLo(mark int) {
	for _, u := range s.undo[mark:] {
		lo := s.m.node(u.n.lo)
		s.set(u.i, lo)
		s.alive[u.i] = lo.Value
	}
}

// restore undoes the step at mark.
func (s *sumState) restore(mark int) {
	for _, u := range s.undo[mark:] {
		s.set(u.i, u.n)
		s.alive[u.i] = u.alive
	}
	clear(s.undo[mark:])
	s.undo = s.undo[:mark]
}

// frame returns the result slots of the state at the given depth: b+1 for
// its Hi child, b for its Lo child.
func (s *sumState) frame(depth, b int) (hi, lo []*Node) {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, make([]*Node, 2*s.budget+1))
	}
	s.depth = max(s.depth, depth+1)
	f := s.frames[depth]
	return f[:b+1], f[b+1 : 2*b+1]
}

// build fills out[j] with β_j of the current state's sum for j = 0..b.
func (s *sumState) build(b, depth int, out []*Node) {
	m := s.m
	m.checkInterrupt()
	level := s.level()
	if level == terminalLevel || b == 0 {
		if level != terminalLevel {
			// Budget spent: the sub-MTBDD over every variable below
			// collapses to its all-alive terminal, as in the binary kernels.
			m.fusionCuts++
		}
		t := m.Const(s.fold())
		for j := 0; j <= b; j++ {
			out[j] = t
		}
		return
	}
	hi, lo := s.frame(depth, b)
	mark := s.stepHi(level)
	s.build(b, depth+1, hi)
	s.flipLo(mark)
	s.build(b-1, depth+1, lo)
	s.restore(mark)
	out[0] = hi[0]
	for j := 1; j <= b; j++ {
		if hi[j-1] == lo[j-1] {
			// The cofactors are (j-1)-failure equivalent: the KREDUCE
			// collapse, Definition 5.2 case 3.
			out[j] = hi[j]
		} else {
			out[j] = m.mk(level, lo[j-1], hi[j])
		}
	}
}

// maxima folds the current state — the root, or one a failed variable led
// to — into the per-prefix maxima, then visits the states b further
// failures can reach from it.
func (s *sumState) maxima(b int, maxs []float64) {
	acc := 0.0
	for i, v := range s.vols {
		acc += float64(v * s.alive[i])
		if acc > maxs[i] {
			maxs[i] = acc
		}
	}
	if b > 0 {
		s.failures(b, maxs)
	}
}

// failures walks the alive spine below the current state and branches into
// maxima at every variable that can still fail.
func (s *sumState) failures(b int, maxs []float64) {
	s.m.checkInterrupt()
	level := s.level()
	if level == terminalLevel {
		return
	}
	mark := s.stepHi(level)
	s.failures(b, maxs)
	s.flipLo(mark)
	s.maxima(b-1, maxs)
	s.restore(mark)
}
