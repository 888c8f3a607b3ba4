package mtbdd

import (
	"math"
	"math/rand"
	"testing"
)

// randLoad builds a random load-like MTBDD over n variables: a sum of
// terms that each gate a volume on one variable's polarity.
func randLoad(m *Manager, rng *rand.Rand, n, terms int) *Node {
	f := m.Zero()
	for t := 0; t < terms; t++ {
		v := rng.Intn(n)
		vol := float64(rng.Intn(40)) / 4
		g := m.Var(v)
		if rng.Intn(2) == 0 {
			g = m.Not(g)
		}
		f = m.Add(f, m.Scale(vol, g))
	}
	return f
}

// witnessOutside is the single-check reference of ScanOutside: a witness of f
// leaving the closed interval [lo, hi], by the generic Witness walk.
func witnessOutside(m *Manager, f *Node, lo, hi float64) (Assignment, float64, bool) {
	return m.Witness(f, func(v float64) bool { return v < lo || v > hi })
}

func TestScanOutsideMatchesWitnessOutside(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(4)
		m := newMgr(t, n)
		f := randLoad(m, rng, n, 1+rng.Intn(6))
		lo := float64(rng.Intn(20))/2 - 2
		hi := lo + float64(rng.Intn(16))/2
		wa, wv, wok := witnessOutside(m, f, lo, hi)
		hits := m.ScanOutside(f, []ScanCheck{{Lo: lo, Hi: hi, MaxFails: -1}})
		h := hits[0]
		if h.OK != wok {
			t.Fatalf("trial %d: ScanOutside ok=%v, WitnessOutside ok=%v", trial, h.OK, wok)
		}
		if !wok {
			continue
		}
		if h.Value != wv {
			t.Fatalf("trial %d: value %v != witness value %v", trial, h.Value, wv)
		}
		if len(h.A) != len(wa) {
			t.Fatalf("trial %d: assignment %v != witness %v", trial, h.A, wa)
		}
		for v, b := range wa {
			if h.A[v] != b {
				t.Fatalf("trial %d: assignment %v != witness %v", trial, h.A, wa)
			}
		}
	}
}

func TestScanOutsideMultiCheckMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		m := newMgr(t, n)
		f := randLoad(m, rng, n, 1+rng.Intn(5))
		var checks []ScanCheck
		for c := 0; c < 1+rng.Intn(8); c++ {
			lo := float64(rng.Intn(20))/2 - 2
			checks = append(checks, ScanCheck{Lo: lo, Hi: lo + float64(rng.Intn(16))/2, MaxFails: rng.Intn(n+2) - 1})
		}
		batch := m.ScanOutside(f, checks)
		for i, c := range checks {
			single := m.ScanOutside(f, []ScanCheck{c})[0]
			if batch[i].OK != single.OK || batch[i].Value != single.Value {
				t.Fatalf("trial %d check %d: batch %+v != single %+v", trial, i, batch[i], single)
			}
		}
	}
}

// TestScanOutsideMaxFailsBruteForce checks budgeted feasibility and witness
// validity against exhaustive evaluation: a check is violated iff some
// full assignment with at most MaxFails failures evaluates outside its
// interval (paths and full assignments agree — don't-cares extend alive).
func TestScanOutsideMaxFailsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(3)
		m := newMgr(t, n)
		f := randLoad(m, rng, n, 1+rng.Intn(5))
		lo := float64(rng.Intn(20))/2 - 2
		hi := lo + float64(rng.Intn(16))/2
		for budget := 0; budget <= n; budget++ {
			want := false
			allAssignments(n, func(assign []bool) {
				if failures(assign) > budget {
					return
				}
				v := m.Eval(f, assign)
				if v < lo || v > hi {
					want = true
				}
			})
			h := m.ScanOutside(f, []ScanCheck{{Lo: lo, Hi: hi, MaxFails: budget}})[0]
			if h.OK != want {
				t.Fatalf("trial %d budget %d: got ok=%v want %v", trial, budget, h.OK, want)
			}
			if !h.OK {
				continue
			}
			if got := len(h.A.FailedVars()); got > budget {
				t.Fatalf("trial %d: witness has %d failures, budget %d", trial, got, budget)
			}
			// The witness value must be the function's value at the
			// witness scenario (don't-cares alive).
			assign := make([]bool, n)
			for i := range assign {
				assign[i] = true
			}
			for v, b := range h.A {
				assign[v] = b
			}
			if v := m.Eval(f, assign); v != h.Value {
				t.Fatalf("trial %d: witness value %v, Eval %v", trial, h.Value, v)
			}
			if !(h.Value < lo || h.Value > hi) {
				t.Fatalf("trial %d: witness value %v inside [%v,%v]", trial, h.Value, lo, hi)
			}
		}
	}
}

func TestScanOutsideEdgeCases(t *testing.T) {
	m := newMgr(t, 2)
	if got := m.ScanOutside(m.Const(5), nil); len(got) != 0 {
		t.Fatalf("no checks must return no hits, got %v", got)
	}
	h := m.ScanOutside(m.Const(5), []ScanCheck{{Lo: math.Inf(-1), Hi: 4, MaxFails: 0}})[0]
	if !h.OK || h.Value != 5 || len(h.A) != 0 {
		t.Fatalf("terminal root: %+v", h)
	}
	h = m.ScanOutside(m.Const(5), []ScanCheck{{Lo: math.Inf(-1), Hi: 5, MaxFails: -1}})[0]
	if h.OK {
		t.Fatalf("in-range terminal must not hit: %+v", h)
	}
}
