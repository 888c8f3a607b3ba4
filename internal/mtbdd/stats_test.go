package mtbdd

import (
	"errors"
	"math/rand"
	"testing"
)

// buildChain returns a manager with n vars and an MTBDD summing them —
// enough structure to exercise every cache.
func buildChain(t *testing.T, n int) (*Manager, *Node) {
	t.Helper()
	m := New()
	for i := 0; i < n; i++ {
		m.AddVar("x")
	}
	f := m.Zero()
	for i := 0; i < n; i++ {
		f = m.Add(f, m.Var(i))
	}
	return m, f
}

// Every one of the operation caches must account hits and misses.
// Before this existed, Stats reported apply-only, so cache efficacy was
// systematically misreported (ISSUE 4 satellite 1).
func TestPerCacheCounters(t *testing.T) {
	m, f := buildChain(t, 8)
	g := m.Var(3)

	// neg: first Not computes (miss), second is a hit.
	m.Not(f)
	m.Not(f)
	// kreduce: same recursion twice.
	m.KReduce(f, 2)
	m.KReduce(f, 2)
	// range: second query hits the root entry.
	m.Range(f)
	m.Range(f)
	// fused: the plain operators share the kernels' table.
	m.Add(f, g)
	m.Add(f, g)

	st := m.Stats()
	for _, c := range []struct {
		name string
		cs   CacheStats
	}{
		{"fused", st.Fused},
		{"neg", st.Neg},
		{"kreduce", st.KReduce},
		{"range", st.Range},
	} {
		if c.cs.Misses == 0 {
			t.Errorf("%s cache recorded no misses: %+v", c.name, c.cs)
		}
		if c.cs.Hits == 0 {
			t.Errorf("%s cache recorded no hits: %+v", c.name, c.cs)
		}
	}
	if st.KReduceCalls != 2 {
		t.Errorf("KReduceCalls = %d, want 2", st.KReduceCalls)
	}
}

// The contract pinned here: ClearCaches drops cache *contents*, never
// counters. Cumulative hit/miss tallies are stable across a clear and
// keep growing afterwards.
func TestCacheCountersSurviveClearCaches(t *testing.T) {
	m, f := buildChain(t, 8)
	m.Not(f)
	m.Not(f)
	m.KReduce(f, 2)
	m.KReduce(f, 2)
	m.Range(f)
	m.Range(f)

	before := m.Stats()
	m.ClearCaches()
	after := m.Stats()
	if before.Fused != after.Fused || before.Neg != after.Neg ||
		before.KReduce != after.KReduce || before.Range != after.Range ||
		before.KReduceCalls != after.KReduceCalls {
		t.Fatalf("ClearCaches changed cumulative counters:\nbefore %+v\nafter  %+v", before, after)
	}

	// Post-clear the caches are empty, so repeating an operation misses
	// again: counters strictly grow.
	m.Not(f)
	grown := m.Stats()
	if grown.Neg.Misses <= after.Neg.Misses {
		t.Fatalf("post-clear Not should miss the fresh cache: %+v vs %+v", grown.Neg, after.Neg)
	}
}

// The fused ternary cache follows the same counter contract as the other
// caches: hits and misses accounted, counters cumulative across
// ClearCaches, and the cache *contents* emptied so post-clear repeats
// miss again.
func TestFusedCacheCounters(t *testing.T) {
	m, f := buildChain(t, 8)
	g := m.Var(3)

	// First fused call populates (misses), repeat hits.
	m.AddK(f, g, 2)
	m.AddK(f, g, 2)
	m.MulAddK(f, g, m.Var(5), 2)
	m.MulAddK(f, g, m.Var(5), 2)

	st := m.Stats()
	if st.Fused.Misses == 0 || st.Fused.Hits == 0 {
		t.Fatalf("fused cache = %+v, want both hits and misses", st.Fused)
	}
	if st.FusionCuts == 0 {
		t.Fatalf("FusionCuts = 0, want budget-exhaustion cuts on a chain of 8 vars at k=2")
	}

	before := m.Stats()
	m.ClearCaches()
	after := m.Stats()
	if before.Fused != after.Fused || before.FusionCuts != after.FusionCuts {
		t.Fatalf("ClearCaches changed cumulative fused counters:\nbefore %+v/%d\nafter  %+v/%d",
			before.Fused, before.FusionCuts, after.Fused, after.FusionCuts)
	}
	// Post-clear the fresh cache must miss again: counters strictly grow.
	m.AddK(f, g, 2)
	grown := m.Stats()
	if grown.Fused.Misses <= after.Fused.Misses {
		t.Fatalf("post-clear AddK should miss the fresh fused cache: %+v vs %+v",
			grown.Fused, after.Fused)
	}
}

// MaxProbe is the unique table's lifetime high-water probe length: it
// must be populated after real work and survive both ClearCaches and a
// GC's table rebuild (the rebuilt table carries the watermark forward).
func TestMaxProbeStat(t *testing.T) {
	m, f := buildChain(t, 10)
	g := randomMTBDD(m, rand.New(rand.NewSource(21)), 10, 6)
	m.Add(f, g)
	st := m.Stats()
	if st.MaxProbe < 1 {
		t.Fatalf("MaxProbe = %d, want >= 1 after inserting a few hundred nodes", st.MaxProbe)
	}
	m.ClearCaches()
	if got := m.Stats().MaxProbe; got != st.MaxProbe {
		t.Fatalf("ClearCaches changed MaxProbe: %d -> %d", st.MaxProbe, got)
	}
	m.GC([]*Node{f})
	if got := m.Stats().MaxProbe; got < st.MaxProbe {
		t.Fatalf("GC rebuild lowered MaxProbe: %d -> %d (watermark must carry forward)", st.MaxProbe, got)
	}
}

// NodeBytes counts the slabs a manager holds, spare ones included, and
// drops by the slabs a GC releases.
func TestNodeBytesFollowSlabs(t *testing.T) {
	m := newMgr(t, 12)
	if got := m.Stats().NodeBytes; got != slabBytes {
		t.Fatalf("a new manager holds %d node bytes, want one slab's %d", got, slabBytes)
	}
	m.Reserve(2 * slabSize)
	if got := m.Stats().NodeBytes; got != 3*slabBytes {
		t.Fatalf("after Reserve the manager holds %d node bytes, want three slabs' %d", got, 3*slabBytes)
	}
	r := rand.New(rand.NewSource(23))
	for m.Stats().Created <= 2*slabSize {
		randomMTBDD(m, r, 12, 8)
	}
	if got := m.Stats().NodeBytes; got != 3*slabBytes {
		t.Fatalf("filling the reserved slabs moved node bytes to %d, want %d", got, 3*slabBytes)
	}
	// The terminals keep the first slab and alloc keeps the open one: GC
	// releases the middle slab.
	m.GC(nil)
	if got := m.Stats().NodeBytes; got != 2*slabBytes {
		t.Fatalf("after GC the manager holds %d node bytes, want two slabs' %d", got, 2*slabBytes)
	}
}

// The instrumentation counters must not add allocations to the cached
// fast paths: mk on an existing node, Add/Not/KReduce hitting their
// caches (ISSUE 4 satellite 6).
func TestFastPathAllocationFree(t *testing.T) {
	m, f := buildChain(t, 8)
	g := m.Var(3)
	// Warm every cache.
	m.Add(f, g)
	m.Not(f)
	m.KReduce(f, 2)

	if n := testing.AllocsPerRun(200, func() { m.Var(3) }); n != 0 {
		t.Errorf("mk fast path allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.Add(f, g) }); n != 0 {
		t.Errorf("cached Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.Not(f) }); n != 0 {
		t.Errorf("cached Not allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.KReduce(f, 2) }); n != 0 {
		t.Errorf("cached KReduce allocates %v per op", n)
	}
}

// Pin the stride-4096 polling cadence: with a hook installed from
// opTick zero, the hook fires exactly once per interruptStride counted
// operations — instrumentation must not change the cadence.
func TestInterruptPollingStride(t *testing.T) {
	if interruptStride != 4096 {
		t.Fatalf("interruptStride = %d, want 4096 (update DESIGN.md §11 if intentional)", interruptStride)
	}
	m := New()
	for i := 0; i < 64; i++ {
		m.AddVar("x")
	}
	calls := 0
	m.SetInterrupt(func() error {
		calls++
		return nil
	})
	// Drive enough cache-missing work to pass several stride windows.
	f := m.Zero()
	for round := 0; round < 6; round++ {
		f = m.Zero()
		for i := 0; i < 64; i++ {
			f = m.Add(f, m.Scale(float64(round+1), m.Var(i)))
		}
		f = m.KReduce(f, 4)
		m.ClearCaches() // force misses next round; counters unaffected
	}
	if m.opTick < interruptStride {
		t.Fatalf("workload too small to cross a stride window: opTick=%d", m.opTick)
	}
	want := int(m.opTick / interruptStride)
	if calls != want {
		t.Fatalf("hook fired %d times over %d ops, want exactly %d (one per %d ops)",
			calls, m.opTick, want, interruptStride)
	}

	// An erroring hook still aborts at the next poll point.
	bail := errors.New("bail")
	m.SetInterrupt(func() error { return bail })
	err := Guard(func() {
		for {
			g := m.Zero()
			for i := 0; i < 64; i++ {
				g = m.Add(g, m.Var(i))
			}
			m.ClearCaches()
		}
	})
	if !errors.Is(err, bail) {
		t.Fatalf("Guard returned %v, want the hook's error", err)
	}
}
