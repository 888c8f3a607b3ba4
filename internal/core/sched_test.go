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

// TestSchedulerObsCounters: the sched.class_dedup_hits counter and
// SchedStats agree, and the fields benchmark/ still reads say what every run
// is — one worker, the class list as one chunk, no steals — whatever worker
// count NewParallelVerifier is handed.
func TestSchedulerObsCounters(t *testing.T) {
	reg := obs.New()
	e, flows := schedFixture(t)
	e.opts.Obs = reg
	v := NewParallelVerifier(e, flows, 4)
	if v.Err() != nil {
		t.Fatal(v.Err())
	}
	st := v.SchedStats()
	if got := reg.Snapshot().Counters["sched.class_dedup_hits"]; got != int64(st.DedupHits) || st.DedupHits <= 0 {
		t.Errorf("sched.class_dedup_hits = %d, SchedStats says %d (want > 0 on the random fixture)", got, st.DedupHits)
	}
	if want := (SchedStats{Workers: 1, Chunks: 1, Classes: len(v.classes), DedupHits: st.DedupHits}); st != want {
		t.Errorf("SchedStats = %+v, want %+v", st, want)
	}
	if len(v.stfs) != len(v.classes) {
		t.Errorf("%d STFs for %d classes", len(v.stfs), len(v.classes))
	}
	e, _ = schedFixture(t)
	if st := NewParallelVerifier(e, nil, 8).SchedStats(); st != (SchedStats{Workers: 1}) {
		t.Errorf("no flows: SchedStats = %+v, want one worker and nothing else", st)
	}
}
