package core

import (
	"testing"

	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/topo"
)

func schedFixture(t *testing.T) (*Engine, []topo.Flow) {
	t.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 200, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 105,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows
}

// TestClassifyFlows pins the class structure: classOf maps every input
// flow to its class, and member counts and summed volumes add up.
func TestClassifyFlows(t *testing.T) {
	e, flows := schedFixture(t)
	classes, classOf := classifyFlows(e, flows)
	if len(classOf) != len(flows) {
		t.Fatalf("classOf has %d entries for %d flows", len(classOf), len(flows))
	}
	if len(classes) >= len(flows) {
		t.Fatalf("no dedup on the random fixture: %d classes from %d flows", len(classes), len(flows))
	}
	members := make([]int, len(classes))
	volume := make([]float64, len(classes))
	for fi, ci := range classOf {
		if ci < 0 || ci >= len(classes) {
			t.Fatalf("flow %d mapped to out-of-range class %d", fi, ci)
		}
		members[ci]++
		volume[ci] += flows[fi].Gbps
	}
	hits := 0
	for ci := range classes {
		if classes[ci].members != members[ci] {
			t.Fatalf("class %d: members %d, classOf says %d", ci, classes[ci].members, members[ci])
		}
		if diff := classes[ci].rep.Gbps - volume[ci]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("class %d: rep volume %.9g, member sum %.9g", ci, classes[ci].rep.Gbps, volume[ci])
		}
		hits += classes[ci].members - 1
	}
	if got := dedupHits(classes); got != hits {
		t.Fatalf("dedupHits = %d, want %d", got, hits)
	}

	// Disabled global equivalence: identity classification.
	e2, _ := schedFixture(t)
	e2.opts.DisableGlobalEquiv = true
	id, idOf := classifyFlows(e2, flows)
	if len(id) != len(flows) || dedupHits(id) != 0 {
		t.Fatalf("disabled equiv still merged: %d classes, %d hits", len(id), dedupHits(id))
	}
	for i := range idOf {
		if idOf[i] != i {
			t.Fatalf("disabled equiv classOf[%d] = %d", i, idOf[i])
		}
	}
}

// TestSchedulerNoIdleWorkers pins satellite 1: the scheduler never spawns
// a goroutine with no chunk to run. With fewer classes than workers the
// spawn count collapses to the class count, and every spawned worker's
// flow counter is visible in stats.
func TestSchedulerNoIdleWorkers(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 12, Links: 24, Prefixes: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	all, err := flowgen.Random(spec, flowgen.RandomSpec{Count: 40, DistinctDstPerPrefix: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ flows, workers int }{{3, 8}, {1, 4}, {40, 64}} {
		flows := all[:tc.flows]
		eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
		v := NewParallelVerifier(eng, flows, tc.workers)
		if v.Err() != nil {
			t.Fatal(v.Err())
		}
		st := v.SchedStats()
		if st.Workers > st.Classes {
			t.Fatalf("flows=%d workers=%d: spawned %d workers for %d classes",
				tc.flows, tc.workers, st.Workers, st.Classes)
		}
		if st.Workers > st.Chunks {
			t.Fatalf("flows=%d workers=%d: spawned %d workers for %d chunks",
				tc.flows, tc.workers, st.Workers, st.Chunks)
		}
		if st.Workers <= 0 || st.Chunks <= 0 {
			t.Fatalf("flows=%d workers=%d: empty sched stats %+v", tc.flows, tc.workers, st)
		}
	}

	// Zero flows: no goroutines, no chunks, a well-formed empty verifier.
	engZ := buildEngine(t, spec, topo.FailLinks, 1, Options{})
	vz := NewParallelVerifier(engZ, nil, 8)
	if st := vz.SchedStats(); st.Workers != 0 || st.Chunks != 0 || st.Classes != 0 {
		t.Fatalf("zero flows spawned work: %+v", st)
	}
}

// TestSchedulerObsCounters checks satellite 2's counter surface: the
// sched.* counters land in the registry snapshot with consistent values.
func TestSchedulerObsCounters(t *testing.T) {
	reg := obs.New()
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 200, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 105,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{Obs: reg})
	v := NewParallelVerifier(eng, flows, 4)
	if v.Err() != nil {
		t.Fatal(v.Err())
	}
	st := v.SchedStats()
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"sched.workers_spawned":  int64(st.Workers),
		"sched.chunks":           int64(st.Chunks),
		"sched.class_dedup_hits": int64(st.DedupHits),
	} {
		if got, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s missing from snapshot", name)
		} else if got != want {
			t.Errorf("counter %s = %d, SchedStats says %d", name, got, want)
		}
	}
	if st.Steals != 0 {
		t.Errorf("SchedStats.Steals = %d; nothing is owned, nothing can be stolen", st.Steals)
	}
	if st.DedupHits <= 0 {
		t.Error("random fixture produced no dedup hits")
	}
	// Per-worker busy timers: one per spawned worker, non-negative.
	busy := 0
	for name := range snap.TimersMS {
		if len(name) > 7 && name[:7] == "worker." && name[len(name)-5:] == ".busy" {
			busy++
		}
	}
	if busy != st.Workers {
		t.Errorf("%d worker busy timers, %d workers spawned", busy, st.Workers)
	}
}
