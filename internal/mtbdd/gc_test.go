package mtbdd

import (
	"math/rand"
	"testing"
)

func TestGCKeepsRoots(t *testing.T) {
	m := newMgr(t, 6)
	r := rand.New(rand.NewSource(9))
	keep := randomMTBDD(m, r, 6, 5)
	for i := 0; i < 50; i++ {
		randomMTBDD(m, r, 6, 5) // garbage
	}
	before := m.Stats().Live
	// Record semantics of the kept root.
	var vals []float64
	allAssignments(6, func(assign []bool) {
		vals = append(vals, m.Eval(keep, assign))
	})
	m.GC([]*Node{keep})
	after := m.Stats().Live
	if after > before {
		t.Fatalf("GC grew the table: %d -> %d", before, after)
	}
	if m.GCRuns() != 1 {
		t.Errorf("GCRuns = %d", m.GCRuns())
	}
	// The root must still evaluate identically.
	i := 0
	allAssignments(6, func(assign []bool) {
		if m.Eval(keep, assign) != vals[i] {
			t.Fatalf("GC corrupted the kept root at %v", assign)
		}
		i++
	})
	// Canonicity: rebuilding an equal function must alias the kept root.
	if m.NodeCount(keep) > 1 {
		rebuilt := m.mk(keep.Level, m.node(keep.lo), m.node(keep.hi))
		if rebuilt != keep {
			t.Error("canonicity broken after GC")
		}
	}
}

func TestGCThenOperate(t *testing.T) {
	m := newMgr(t, 4)
	f := m.Add(m.Scale(3, m.Var(0)), m.Mul(m.Not(m.Var(1)), m.Const(5)))
	g := m.And(m.Var(2), m.Var(3))
	for i := 0; i < 30; i++ {
		m.Mul(m.Const(float64(i)), m.Var(i%4)) // garbage
	}
	m.GC([]*Node{f, g})
	// New operations over survivors must stay correct.
	h := m.Mul(f, g)
	allAssignments(4, func(assign []bool) {
		want := m.Eval(f, assign) * m.Eval(g, assign)
		if got := m.Eval(h, assign); got != want {
			t.Fatalf("post-GC Mul wrong at %v: %v != %v", assign, got, want)
		}
	})
	// Zero/one survive implicitly.
	if m.Add(f, m.Zero()) != f {
		t.Error("zero terminal lost")
	}
}

func TestGCEmptyRoots(t *testing.T) {
	m := newMgr(t, 3)
	m.Or(m.Var(0), m.Var(1))
	m.GC(nil)
	if live := m.Stats().Live; live != 0 {
		t.Errorf("live = %d after full GC, want 0 internal nodes", live)
	}
	// Manager still usable.
	f := m.And(m.Var(1), m.Var(2))
	if m.Eval(f, []bool{true, true, true}) != 1 {
		t.Error("manager unusable after full GC")
	}
}
