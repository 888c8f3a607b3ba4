package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil registry must be a total no-op: every accessor returns a nil
// typed pointer whose methods are themselves no-ops. This is the off
// switch the whole pipeline relies on.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Timer("t").Add(time.Second)
	sp := r.Span("phase")
	sp.Child("sub").End()
	sp.End()
	r.AddPhase("p", time.Second)
	r.RecordManager(ManagerStats{Name: "m"})
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	if got := r.Timer("t").Total(); got != 0 {
		t.Fatalf("nil timer total = %v, want 0", got)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", snap)
	}
}

func TestCountersAndTimers(t *testing.T) {
	r := New()
	c := r.Counter("flows")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("flows") != c {
		t.Fatal("Counter must memoize by name")
	}
	tm := r.Timer("kreduce")
	tm.Add(2 * time.Millisecond)
	tm.Add(3 * time.Millisecond)
	if tm.Total() != 5*time.Millisecond || tm.Count() != 2 {
		t.Fatalf("timer = %v x%d, want 5ms x2", tm.Total(), tm.Count())
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestSpansAggregateByPath(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		sp := r.Span("check")
		ch := sp.Child("kreduce")
		ch.End()
		sp.End()
	}
	snap := r.Snapshot()
	if len(snap.Phases) != 2 {
		t.Fatalf("phases = %+v, want 2 aggregated paths", snap.Phases)
	}
	// Paths register in first-End order (the child span ends before its
	// parent), so only the aggregate counts are asserted here, not the
	// slice order.
	byPath := map[string]PhaseStat{}
	for _, p := range snap.Phases {
		byPath[p.Path] = p
	}
	if byPath["check"].Count != 3 || byPath["check/kreduce"].Count != 3 {
		t.Fatalf("span counts = %+v, want 3 each", byPath)
	}
}

func TestSnapshotEmitsAllKnownCaches(t *testing.T) {
	r := New()
	// A name is recorded once: the later snapshot replaces this one.
	r.RecordManager(ManagerStats{
		Name:   "primary",
		Caches: map[string]CacheCounters{"fused": {Hits: 1000, Misses: 1000}},
	})
	r.RecordManager(ManagerStats{
		Name:   "primary",
		Caches: map[string]CacheCounters{"fused": {Hits: 10, Misses: 2}},
	})
	r.RecordManager(ManagerStats{
		Name:   "shard.0",
		Caches: map[string]CacheCounters{"fused": {Hits: 5, Misses: 1}, "kreduce": {Hits: 7}},
	})
	snap := r.Snapshot()
	for _, name := range []string{"fused", "kreduce", "neg", "range"} {
		if _, ok := snap.Caches[name]; !ok {
			t.Fatalf("snapshot missing cache %q: %+v", name, snap.Caches)
		}
	}
	if _, ok := snap.Caches["apply"]; ok {
		t.Fatalf("snapshot reports the apply cache, which no manager has: %+v", snap.Caches)
	}
	if got := snap.Caches["fused"]; got.Hits != 15 || got.Misses != 3 {
		t.Fatalf("fused aggregate = %+v, want 15/3", got)
	}
	if got := snap.Caches["kreduce"]; got.Hits != 7 {
		t.Fatalf("kreduce aggregate = %+v, want 7 hits", got)
	}
	if len(snap.Managers) != 2 || snap.Managers[0].Name != "primary" || snap.Managers[1].Name != "shard.0" {
		t.Fatalf("managers not one per name, sorted by name: %+v", snap.Managers)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("worker.0.flows_executed").Add(12)
	r.Timer("check/kreduce").Add(time.Millisecond)
	r.Span("execute").End()
	r.RecordManager(ManagerStats{Name: "primary", Created: 100, PeakLive: 80,
		Caches: map[string]CacheCounters{"neg": {Hits: 1, Misses: 2}}})

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters["worker.0.flows_executed"] != 12 {
		t.Fatalf("round-trip lost counter: %+v", back.Counters)
	}
	if len(back.Caches) != len(knownCaches) {
		t.Fatalf("round-trip caches = %d keys, want %d", len(back.Caches), len(knownCaches))
	}
	if back.Managers[0].Caches["neg"].Misses != 2 {
		t.Fatalf("round-trip lost manager cache stats: %+v", back.Managers)
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.Span("routesim").End()
	r.Counter("degraded_flows").Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phases:", "routesim", "caches", "fused", "degraded_flows"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// Counter.Add and Timer.Add must not allocate — they sit on paths
// called per flow and per link.
func TestHotPathAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	tm := r.Timer("hot")
	if n := testing.AllocsPerRun(100, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { tm.Add(time.Microsecond) }); n != 0 {
		t.Fatalf("Timer.Add allocates %v per op", n)
	}
}
