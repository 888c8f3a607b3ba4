package mtbdd

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the shapes compositional verification (internal/compose)
// pushes through this package: aggregate scans over possibly-empty link
// sets and Snapshot round-trips of interface summaries — 0/1 selection
// guards over failure variables, exchanged between per-domain managers.

// TestScanOutsideEmptyAggregate is the empty-link-set aggregate: the sum
// over no links is the constant Zero, and a scan over it must hit exactly
// when 0 lies outside the bound — with an empty witness in either budget
// regime.
func TestScanOutsideEmptyAggregate(t *testing.T) {
	m := newMgr(t, 3)
	agg := m.AddNK(nil, 2) // empty aggregate
	if agg != m.Zero() {
		t.Fatalf("empty AddNK = %v, want Zero", agg)
	}
	for _, maxFails := range []int{-1, 0, 2} {
		h := m.ScanOutside(agg, []ScanCheck{{Lo: 0, Hi: 10, MaxFails: maxFails}})[0]
		if h.OK {
			t.Fatalf("maxFails=%d: zero load within [0,10] must not hit: %+v", maxFails, h)
		}
		h = m.ScanOutside(agg, []ScanCheck{{Lo: 1, Hi: 10, MaxFails: maxFails}})[0]
		if !h.OK || h.Value != 0 || len(h.A) != 0 {
			t.Fatalf("maxFails=%d: zero load below min 1 must hit with empty witness: %+v", maxFails, h)
		}
	}
}

// TestScanOutsideUnfailableGuard covers loads gated on unfailable guards:
// the violating terminal is reachable without failing anything, so even a
// k=0 budget must find it, and the witness must not fail any variable.
func TestScanOutsideUnfailableGuard(t *testing.T) {
	m := newMgr(t, 3)
	// Load 7 whenever var 1 is alive — the all-alive path violates Hi=5.
	f := m.Scale(7, m.Var(1))
	h := m.ScanOutside(f, []ScanCheck{{Lo: math.Inf(-1), Hi: 5, MaxFails: 0}})[0]
	if !h.OK || h.Value != 7 {
		t.Fatalf("k=0 must reach the all-alive violation: %+v", h)
	}
	for v, b := range h.A {
		if !b {
			t.Fatalf("k=0 witness fails var %d: %v", v, h.A)
		}
	}
	// Load 7 only when var 1 has FAILED: at k=0 unreachable, at k=1 found.
	g := m.Scale(7, m.Not(m.Var(1)))
	h = m.ScanOutside(g, []ScanCheck{{Lo: math.Inf(-1), Hi: 5, MaxFails: 0}})[0]
	if h.OK {
		t.Fatalf("k=0 must not reach a failure-gated violation: %+v", h)
	}
	h = m.ScanOutside(g, []ScanCheck{{Lo: math.Inf(-1), Hi: 5, MaxFails: 1}})[0]
	if !h.OK || h.Value != 7 || h.A[1] != false {
		t.Fatalf("k=1 must fail exactly var 1: %+v", h)
	}
}

// TestScanOutsideZeroBudgetBatch runs k=0 and unlimited checks through
// one shared walk and cross-checks against the single-check path.
func TestScanOutsideZeroBudgetBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(3)
		m := newMgr(t, n)
		f := randLoad(m, rng, n, 1+rng.Intn(5))
		hi := float64(rng.Intn(12)) / 2
		checks := []ScanCheck{
			{Lo: math.Inf(-1), Hi: hi, MaxFails: 0},
			{Lo: math.Inf(-1), Hi: hi, MaxFails: -1},
		}
		hits := m.ScanOutside(f, checks)
		// The k=0 check is decided by the all-alive evaluation alone.
		allAlive := m.EvalAllAlive(f)
		if hits[0].OK != (allAlive > hi) {
			t.Fatalf("trial %d: k=0 hit=%v but all-alive value %v vs hi %v", trial, hits[0].OK, allAlive, hi)
		}
		if hits[0].OK && hits[0].Value != allAlive {
			t.Fatalf("trial %d: k=0 witness value %v != all-alive %v", trial, hits[0].Value, allAlive)
		}
		// k=0 hit implies unlimited hit.
		if hits[0].OK && !hits[1].OK {
			t.Fatalf("trial %d: k=0 hit without unlimited hit", trial)
		}
	}
}

// summaryGuards builds a BorderAdv-shaped guard layer: 0/1 selection
// guards over the failure variables with heavy structure sharing, the
// exact shape compose exchanges between domain managers each round.
func summaryGuards(m *Manager, rng *rand.Rand, n, count int) []*Node {
	gs := make([]*Node, count)
	for i := range gs {
		gs[i] = randomGuard(m, rng, n, 4)
	}
	return gs
}

// TestSnapshotSummaryRoundTrip ships a summary guard layer from a home
// manager to a consumer and back: both hops must preserve every guard's
// truth table, and re-importing into the home manager must return the
// original canonical nodes (hash consing makes round-trip identity
// observable as pointer equality).
func TestSnapshotSummaryRoundTrip(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(31))
	home := newMgr(t, n)
	guards := summaryGuards(home, rng, n, 12)

	snap, at := NewSnapshot(home, guards)
	consumer := newMgr(t, n)
	table := consumer.ImportSnapshot(snap)

	imported := make([]*Node, len(guards))
	for i := range guards {
		imported[i] = table[at[i]]
	}

	back, backAt := NewSnapshot(consumer, imported)
	if back.Len() != snap.Len() {
		t.Fatalf("round trip changed node count: %d -> %d", snap.Len(), back.Len())
	}
	homeTable := home.ImportSnapshot(back)
	assign := make([]bool, n)
	for i, g := range guards {
		got := homeTable[backAt[i]]
		if got != g {
			t.Fatalf("guard %d: round trip did not restore the canonical node", i)
		}
		// Spot-check the truth table across random scenarios on both
		// managers (the consumer copy must agree everywhere too).
		for trial := 0; trial < 32; trial++ {
			for v := range assign {
				assign[v] = rng.Intn(2) == 0
			}
			want := home.Eval(g, assign)
			if cv := consumer.Eval(imported[i], assign); cv != want {
				t.Fatalf("guard %d: consumer eval %v != home %v under %v", i, cv, want, assign)
			}
		}
	}
}

// TestSnapshotSummaryAcrossManagerWidths imports a summary into a
// consumer that declares MORE variables than the summary tests (the
// check manager's global failure space vs a domain's) — legal — and
// asserts the narrow-manager panic for the reverse direction.
func TestSnapshotSummaryAcrossManagerWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	home := newMgr(t, 4)
	guards := summaryGuards(home, rng, 4, 6)
	snap, at := NewSnapshot(home, guards)

	wide := newMgr(t, 9)
	table := wide.ImportSnapshot(snap)
	assign := make([]bool, 9)
	for i, g := range guards {
		idx := at[i]
		for trial := 0; trial < 16; trial++ {
			for v := range assign {
				assign[v] = rng.Intn(2) == 0
			}
			if got, want := wide.Eval(table[idx], assign), home.Eval(g, assign[:4]); got != want {
				t.Fatalf("guard %d: wide eval %v != home %v", i, got, want)
			}
		}
	}

	narrow := newMgr(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("importing into a narrower manager must panic")
		}
	}()
	narrow.ImportSnapshot(snap)
}
