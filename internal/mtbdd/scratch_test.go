package mtbdd

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// walkAnswers is what the check stage asks of one operand list: each
// operand's Range, the prefix maxima and the summed load.
type walkAnswers struct {
	ranges []valueRange
	his    []float64
	sum    *Node
}

func walkAll(m *Manager, vols []float64, fs []*Node, k int) walkAnswers {
	var a walkAnswers
	for _, f := range fs {
		lo, hi := m.Range(f)
		a.ranges = append(a.ranges, valueRange{lo, hi})
	}
	a.his = m.PrefixMaxK(vols, fs, k)
	a.sum = m.SumMulK(vols, fs, k)
	return a
}

// checkScratchEmpty: the walk scratch a manager keeps between calls holds
// no entry and pins no node.
func checkScratchEmpty(t *testing.T, where string, m *Manager) {
	t.Helper()
	if len(m.rangeMemo) != 0 {
		t.Errorf("%s: Range's memo kept %d entries", where, len(m.rangeMemo))
	}
	s := m.sum
	if s == nil {
		return
	}
	if s.vols != nil || len(s.cur) != 0 || len(s.undo) != 0 || s.depth != 0 {
		t.Errorf("%s: the sum state was kept loaded", where)
	}
	pinned := slices.ContainsFunc(s.cur[:cap(s.cur)], func(n *Node) bool { return n != nil }) ||
		slices.ContainsFunc(s.undo[:cap(s.undo)], func(u sumUndo) bool { return u.n != nil })
	for _, f := range s.frames {
		pinned = pinned || slices.ContainsFunc(f, func(n *Node) bool { return n != nil })
	}
	if pinned {
		t.Errorf("%s: the kept sum state still points at nodes", where)
	}
}

// TestWalkScratchAcrossGCAndDrop: Range, PrefixMaxK and SumMulK keep their
// scratch on the manager between calls, and answer the same after a
// collection, after a call whose scratch grew past scratchKeep (and was
// dropped), and after a walk an interrupt cut short. Between calls the
// scratch pins no node.
func TestWalkScratchAcrossGCAndDrop(t *testing.T) {
	const n, k = 16, 2
	m := newMgr(t, n)
	vols, fs := sumOperands(m, rand.New(rand.NewSource(7)), n, 40)
	want := walkAll(m, vols, fs, k)
	check := func(where string) {
		t.Helper()
		got := walkAll(m, vols, fs, k)
		if !slices.Equal(got.ranges, want.ranges) || !slices.Equal(got.his, want.his) || got.sum != want.sum {
			t.Fatalf("%s: the walks answer differently", where)
		}
		checkScratchEmpty(t, where, m)
	}
	check("warm")
	if m.rangeMemo == nil || m.sum == nil {
		t.Fatal("the manager kept no walk scratch")
	}

	m.GC(append(slices.Clone(fs), want.sum))
	check("after GC")

	// Σ 2^i·x_i over 15 variables has 2^15-1 internal nodes, each a Range
	// memo entry; scratchKeep+1 operands overflow the sum state.
	big := m.Zero()
	for i := 0; i < 15; i++ {
		big = m.Add(big, m.Mul(m.Const(float64(int(1)<<i)), m.Var(i)))
	}
	if lo, hi := m.Range(big); lo != 0 || hi != 1<<15-1 {
		t.Fatalf("Range of the wide sum = [%v, %v]", lo, hi)
	}
	if m.rangeMemo != nil {
		t.Error("Range kept a memo past scratchKeep")
	}
	wide := make([]*Node, scratchKeep+1)
	wideVols := make([]float64, len(wide))
	for i := range wide {
		wide[i], wideVols[i] = m.Var(i%n), 1
	}
	m.PrefixMaxK(wideVols, wide, k)
	if m.sum != nil {
		t.Error("PrefixMaxK kept a sum state past scratchKeep")
	}
	check("after the drop")

	// A walk long enough to poll the interrupt hook, on its own manager.
	m2 := newMgr(t, 100)
	vols2, fs2 := sumWorkload(m2, 100)
	want2 := m2.SumMulK(vols2, fs2, k)
	stop := errors.New("stop")
	m2.SetInterrupt(func() error { return stop })
	if err := Guard(func() { m2.SumMulK(vols2, fs2, k) }); !errors.Is(err, stop) {
		t.Fatalf("SumMulK under a firing interrupt: %v", err)
	}
	m2.SetInterrupt(nil)
	checkScratchEmpty(t, "after the interrupt", m2)
	m2.GC(append(slices.Clone(fs2), want2))
	if got := m2.SumMulK(vols2, fs2, k); got != want2 {
		t.Fatal("after the interrupt and GC: SumMulK answers differently")
	}
}
