package core

import (
	"testing"

	"github.com/yu-verify/yu/internal/topo"
)

var sinkReport *Report

// BenchmarkCheckAllLinks times the check stage alone — the all-links
// overload property at factor 1.0, pruned, over finished STFs — on the
// repository benchmark's two Verify WANs. Computed tables are dropped every
// iteration so a run does not answer from the last one's Range entries; the
// unique table keeps its nodes, so this is a lower bound.
func BenchmarkCheckAllLinks(b *testing.B) {
	for _, sh := range benchShapes[:2] {
		b.Run(sh.name, func(b *testing.B) {
			_, v := sh.verifier(b, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.e.m.ClearCaches()
				rep, err := v.Run(nil, nil, 1.0)
				if err != nil {
					b.Fatal(err)
				}
				sinkReport = rep
			}
		})
	}
}

// checkCreatedNodes builds the shape's verifier from scratch and returns
// how many MTBDD nodes its check stage creates: the pruned all-links
// overload check on the two Verify shapes, and on the portfolio shape the
// full load of every directed link, which is what a portfolio's
// network-wide utilization property makes Portfolio.Eval build.
func checkCreatedNodes(tb testing.TB, sh benchShape) int {
	tb.Helper()
	spec, v := sh.verifier(tb, Options{})
	m := v.e.m
	before := m.Stats().Created
	if sh.name == "portfolio-1k" {
		for d := 0; d < 2*spec.Net.NumLinks(); d++ {
			v.LinkLoad(topo.DirLinkID(d))
		}
	} else if _, err := v.Run(nil, nil, 1.0); err != nil {
		tb.Fatal(err)
	}
	return int(m.Stats().Created - before)
}

// TestCheckCreatedNodesPinned: like route simulation (routesim's
// TestCreatedNodesPinned), the check stage of one input creates exactly the
// same nodes every time, so the count is a host-noise-free measure of the
// work it does, pinned here for the benchmark's three WAN shapes. With the
// per-class fold the same three stages created 187 312, 533 746 and 966 598
// nodes; a load now costs the nodes of the load. A change that moves
// a count changed what the check stage builds: if that is intended, re-pin
// it and say why in the commit.
func TestCheckCreatedNodesPinned(t *testing.T) {
	want := map[string]int{"wan-k1": 3841, "wan-k2": 13712, "portfolio-1k": 23359}
	for _, sh := range benchShapes {
		runs := 2
		if sh.name == "portfolio-1k" {
			runs = 10
		}
		for i := 0; i < runs; i++ {
			if got := checkCreatedNodes(t, sh); got != want[sh.name] {
				t.Errorf("%s run %d: the check stage created %d nodes, pinned at %d", sh.name, i, got, want[sh.name])
			}
		}
	}
}

var sinkVerifier *Verifier

// BenchmarkExecuteAll times symbolic execution of every class of the three
// benchmark WANs on a fresh engine: route simulation is outside the timer,
// and allocation per op over the shape's class count is what the wavefront's
// bookkeeping costs.
func BenchmarkExecuteAll(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			spec := sh.spec(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := buildEngine(b, spec, topo.FailLinks, sh.k, Options{})
				b.StartTimer()
				v := NewVerifier(eng, spec.Flows)
				if err := v.Err(); err != nil {
					b.Fatal(err)
				}
				sinkVerifier = v
			}
		})
	}
}

// execWork executes the shape from scratch and returns how many MTBDD nodes
// execution created and how the classes split into executed and shared.
func execWork(tb testing.TB, sh benchShape) (created, executed, shared int) {
	tb.Helper()
	spec := sh.spec(tb)
	eng := buildEngine(tb, spec, topo.FailLinks, sh.k, Options{})
	before := eng.m.Stats().Created
	v := NewVerifier(eng, spec.Flows)
	if err := v.Err(); err != nil {
		tb.Fatal(err)
	}
	shared = sharedClasses(v)
	return int(eng.m.Stats().Created - before), len(v.stfs) - shared, shared
}

// TestExecCreatedNodesPinned: execution of one input creates exactly the same
// nodes every time — and exactly as many as when every class was executed:
// a shared class repeats nodes the manager already holds. Pinned with the
// executed/shared split of the three benchmark WANs; a change that moves a
// number changed what execution builds or what it recognises as a repeated
// behaviour: if that is intended, re-pin it and say why in the commit.
func TestExecCreatedNodesPinned(t *testing.T) {
	want := map[string][3]int{
		"wan-k1":       {130602, 2989, 1106},
		"wan-k2":       {222799, 812, 532},
		"portfolio-1k": {41361, 1701, 836},
	}
	for _, sh := range benchShapes {
		for i := 0; i < 2; i++ {
			created, executed, shared := execWork(t, sh)
			if got := [3]int{created, executed, shared}; got != want[sh.name] {
				t.Errorf("%s run %d: execution created %d nodes for %d executed + %d shared classes, pinned at %v",
					sh.name, i, created, executed, shared, want[sh.name])
			}
		}
	}
}

// TestExecFusedMissesBounded: on the wan-k2 shape, execution makes at most
// 1.5 M fused-table misses. The fused kernels decide KREDUCE's merge from
// the β_k result they just built (kernels.go); deciding it from a second
// walk of the Hi operands at budget k−1 cost 1 966 126 misses here, against
// 1 455 736 without it. The count is deterministic
// (TestExecutionCountersRepeat), so the bound cannot flake.
func TestExecFusedMissesBounded(t *testing.T) {
	const bound = 1_500_000
	sh := benchShapes[1]
	spec := sh.spec(t)
	eng := buildEngine(t, spec, topo.FailLinks, sh.k, Options{})
	before := eng.m.Stats()
	if err := NewVerifier(eng, spec.Flows).Err(); err != nil {
		t.Fatal(err)
	}
	st := eng.m.Stats()
	misses := st.Fused.Misses - before.Fused.Misses
	t.Logf("%s execution: fused %d hits / %d misses, kreduce %d hits / %d misses, %d cuts, %d created",
		sh.name, st.Fused.Hits-before.Fused.Hits, misses, st.KReduce.Hits-before.KReduce.Hits,
		st.KReduce.Misses-before.KReduce.Misses, st.FusionCuts-before.FusionCuts, st.Created-before.Created)
	if misses > bound {
		t.Errorf("%s: execution made %d fused-table misses, bound %d", sh.name, misses, bound)
	}
}
