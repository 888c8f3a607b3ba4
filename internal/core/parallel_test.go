package core

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// buildEngine runs route simulation on a fresh manager and returns an
// engine, so sequential and parallel runs never share MTBDD state.
func buildEngine(t testing.TB, spec *config.Spec, mode topo.FailureMode, k int, opts Options) *Engine {
	t.Helper()
	m := mtbdd.New()
	fv := routesim.NewFailVars(m, spec.Net, mode, k)
	rs, err := routesim.Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(rs, opts)
}

// normalizeReport zeroes the wall-clock fields, which are the only part of
// a Report allowed to differ between sequential and parallel runs.
func normalizeReport(rep *Report) {
	for i := range rep.LinkStats {
		rep.LinkStats[i].Elapsed = 0
	}
}

func reportsEqual(t *testing.T, name string, seq, par *Report) {
	t.Helper()
	normalizeReport(seq)
	normalizeReport(par)
	if seq.Holds != par.Holds {
		t.Fatalf("%s: Holds %v (sequential) vs %v (parallel)", name, seq.Holds, par.Holds)
	}
	if seq.FlowsExecuted != par.FlowsExecuted || seq.FlowsTotal != par.FlowsTotal {
		t.Fatalf("%s: flow counts (%d,%d) vs (%d,%d)", name,
			seq.FlowsExecuted, seq.FlowsTotal, par.FlowsExecuted, par.FlowsTotal)
	}
	if len(seq.Violations) != len(par.Violations) {
		t.Fatalf("%s: %d violations (sequential) vs %d (parallel)", name, len(seq.Violations), len(par.Violations))
	}
	for i := range seq.Violations {
		a, b := seq.Violations[i], par.Violations[i]
		if a.Kind != b.Kind || a.Link != b.Link || a.Prefix != b.Prefix ||
			a.Value != b.Value || a.Min != b.Min || a.Max != b.Max {
			t.Fatalf("%s: violation %d differs:\n  sequential: %+v\n  parallel:   %+v", name, i, a, b)
		}
		if len(a.FailedLinks) != len(b.FailedLinks) || len(a.FailedRouters) != len(b.FailedRouters) {
			t.Fatalf("%s: violation %d witness differs: %+v vs %+v", name, i, a, b)
		}
		for j := range a.FailedLinks {
			if a.FailedLinks[j] != b.FailedLinks[j] {
				t.Fatalf("%s: violation %d witness link %d differs", name, i, j)
			}
		}
		for j := range a.FailedRouters {
			if a.FailedRouters[j] != b.FailedRouters[j] {
				t.Fatalf("%s: violation %d witness router %d differs", name, i, j)
			}
		}
	}
	if len(seq.LinkStats) != len(par.LinkStats) {
		t.Fatalf("%s: %d link stats (sequential) vs %d (parallel)", name, len(seq.LinkStats), len(par.LinkStats))
	}
	for i := range seq.LinkStats {
		if seq.LinkStats[i] != par.LinkStats[i] {
			t.Fatalf("%s: link stat %d differs:\n  sequential: %+v\n  parallel:   %+v",
				name, i, seq.LinkStats[i], par.LinkStats[i])
		}
	}
}

// runBoth verifies the same workload sequentially and with 4 workers and
// requires identical Reports.
func runBoth(t *testing.T, name string, spec *config.Spec, flows []topo.Flow, mode topo.FailureMode, k int, opts Options, overload float64, delivered []topo.DeliveredBound) {
	t.Helper()
	seqEng := buildEngine(t, spec, mode, k, opts)
	seq := mustRun(t, func() (*Report, error) { return NewVerifier(seqEng, flows).Run(spec.Props, delivered, overload) })

	parEng := buildEngine(t, spec, mode, k, opts)
	par := mustRun(t, func() (*Report, error) { return NewParallelVerifier(parEng, flows, 4).Run(spec.Props, delivered, overload) })

	reportsEqual(t, name, seq, par)
}

// TestParallelMatchesSequentialFatTree checks the determinism guarantee on
// the FT-4 fixture: a parallel run (4 workers) produces exactly the
// sequential Report, violations and per-link stats included.
func TestParallelMatchesSequentialFatTree(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 5, 9.0/56.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, "fattree", spec, flows, topo.FailLinks, 2, Options{}, 1.0, nil)
}

// TestParallelMatchesSequentialWAN checks the guarantee on a WAN fixture,
// including a delivered bound and a tight overload factor that produces
// violations.
func TestParallelMatchesSequentialWAN(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 40, Links: 80, Prefixes: 12, SRPolicyFraction: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 600, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 3, Seed: 142,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := []topo.DeliveredBound{{
		Prefix: netip.MustParsePrefix("0.0.0.0/0"), Min: 0, Max: 1e12,
	}}
	runBoth(t, "wan", spec, flows, topo.FailLinks, 1, Options{}, 0.5, delivered)
	runBoth(t, "wan-noearly", spec, flows, topo.FailLinks, 1, Options{DisableEarlyTermination: true}, 0.5, nil)
}

// TestParallelExecutionSharding checks that sharded execution with merge
// reproduces the sequential STFs node for node in the primary manager.
func TestParallelExecutionSharding(t *testing.T) {
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
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
	seq := NewVerifier(eng, flows)
	// The parallel verifier shares eng's manager: its imported STFs must
	// be pointer-identical to the sequentially executed ones.
	par := NewParallelVerifier(eng, flows, 3)
	if len(seq.FlowSTFs()) != len(par.FlowSTFs()) {
		t.Fatalf("%d sequential STFs vs %d parallel", len(seq.FlowSTFs()), len(par.FlowSTFs()))
	}
	for i, a := range seq.FlowSTFs() {
		b := par.FlowSTFs()[i]
		if a.Delivered != b.Delivered || a.Dropped != b.Dropped || a.InFlight != b.InFlight {
			t.Fatalf("STF %d: delivered/dropped/in-flight nodes differ", i)
		}
		if len(a.Links) != len(b.Links) {
			t.Fatalf("STF %d: %d links vs %d", i, len(a.Links), len(b.Links))
		}
		for l, w := range a.Links {
			if b.Links[l] != w {
				t.Fatalf("STF %d: link %d node differs (pointer identity lost in merge)", i, l)
			}
		}
	}
}

// checkLinkPartition asserts the slot-array invariant of the parallel
// overload check: every directed link of the network appears in exactly
// one of Report.LinkStats or Report.Unchecked — no link is dropped, and
// no half-written (done=false) slot leaks a stat or a violation into
// the report.
func checkLinkPartition(t *testing.T, net *topo.Network, rep *Report) {
	t.Helper()
	seen := make(map[topo.DirLinkID]string)
	for _, s := range rep.LinkStats {
		if prev, dup := seen[s.Link]; dup {
			t.Fatalf("link %d appears twice (%s, LinkStats)", s.Link, prev)
		}
		seen[s.Link] = "LinkStats"
	}
	for _, l := range rep.Unchecked {
		if prev, dup := seen[l]; dup {
			t.Fatalf("link %d appears twice (%s, Unchecked)", l, prev)
		}
		seen[l] = "Unchecked"
	}
	if want := 2 * net.NumLinks(); len(seen) != want {
		t.Fatalf("LinkStats (%d) + Unchecked (%d) cover %d directed links, want %d",
			len(rep.LinkStats), len(rep.Unchecked), len(seen), want)
	}
	checked := make(map[topo.DirLinkID]bool, len(rep.LinkStats))
	for _, s := range rep.LinkStats {
		checked[s.Link] = true
	}
	for _, v := range rep.Violations {
		if v.Kind == "link-load" && !checked[v.Link] {
			t.Fatalf("violation on link %d leaked from an unchecked slot", v.Link)
		}
	}
}

// errAfterCtx is a context whose Err flips to Canceled after n polls. It
// lets a test cancel the check pool deterministically from inside the
// workers' own governance polling, mid-run, without racing a timer.
type errAfterCtx struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestParallelStopLeavesNoPartialSlots cancels the parallel link-check
// pool mid-run and checks the slot accumulation: links whose check never
// completed must land in Unchecked, completed slots keep their stats,
// and the two sets exactly partition the directed links.
func TestParallelStopLeavesNoPartialSlots(t *testing.T) {
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
	eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
	v := NewParallelVerifier(eng, flows, 4)
	if v.err != nil {
		t.Fatal(v.err)
	}
	// Arm the cancellation only now, so execution and merge complete and
	// the stop fires inside checkOverloadAllParallel's pool.
	eng.opts.Ctx = &errAfterCtx{Context: context.Background(), n: 8}
	rep, err := v.Run(nil, nil, 1.0)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(rep.Unchecked) == 0 {
		t.Fatal("mid-run cancel left no unchecked links; the stop never fired")
	}
	if !rep.Incomplete || rep.Holds {
		t.Fatalf("Incomplete=%v Holds=%v after a canceled check pool", rep.Incomplete, rep.Holds)
	}
	checkLinkPartition(t, spec.Net, rep)
}

// TestParallelBudgetDegradeSkipPartition drives the check pool into
// node-budget skips under the degrade policy: skipped links must be
// reported as unchecked, never as zero-value stats, and the partition
// invariant must survive whatever mix of done/skipped slots the
// scheduler produced.
func TestParallelBudgetDegradeSkipPartition(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 5, 9.0/56.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := buildEngine(t, spec, topo.FailLinks, 2, Options{
		NodeBudget: 6000, OnBudget: BudgetDegrade,
	})
	v := NewParallelVerifier(eng, flows, 4)
	rep, err := v.Run(nil, nil, 1.0)
	if err != nil {
		t.Fatalf("degrade policy must not surface budget errors: %v", err)
	}
	checkLinkPartition(t, spec.Net, rep)
	if len(rep.Unchecked) > 0 && (!rep.Incomplete || rep.Holds) {
		t.Fatalf("Incomplete=%v Holds=%v with %d unchecked links",
			rep.Incomplete, rep.Holds, len(rep.Unchecked))
	}
}

// TestParallelMatchesSequentialWithMetrics re-runs the WAN equality
// check with an obs.Registry attached to both engines: instrumentation
// must be a pure side channel, leaving the parallel Report byte-
// identical to the sequential one, while the parallel registry picks up
// the per-worker counters and per-shard manager stats.
func TestParallelMatchesSequentialWithMetrics(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 40, Links: 80, Prefixes: 12, SRPolicyFraction: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 600, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 3, Seed: 142,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := []topo.DeliveredBound{{
		Prefix: netip.MustParsePrefix("0.0.0.0/0"), Min: 0, Max: 1e12,
	}}

	seqReg, parReg := obs.New(), obs.New()
	seqEng := buildEngine(t, spec, topo.FailLinks, 1, Options{Obs: seqReg})
	seq := mustRun(t, func() (*Report, error) {
		return NewVerifier(seqEng, flows).Run(spec.Props, delivered, 0.5)
	})
	parEng := buildEngine(t, spec, topo.FailLinks, 1, Options{Obs: parReg})
	par := mustRun(t, func() (*Report, error) {
		return NewParallelVerifier(parEng, flows, 4).Run(spec.Props, delivered, 0.5)
	})
	reportsEqual(t, "wan-metrics", seq, par)

	// The parallel registry must account for every unit of work exactly
	// once: worker flow counters — executed and shared — sum to the
	// merged-flow count, link counters to the completed checks.
	snap := parReg.Snapshot()
	var flowSum, linkSum int64
	for name, val := range snap.Counters {
		if !strings.HasPrefix(name, "worker.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".flows_executed"), strings.HasSuffix(name, ".classes_shared"):
			flowSum += val
		case strings.HasSuffix(name, ".links_checked"):
			linkSum += val
		}
	}
	if flowSum != int64(par.FlowsExecuted) {
		t.Errorf("worker flow counters sum to %d, report says %d executed", flowSum, par.FlowsExecuted)
	}
	// Every check item — bounds, delivered, overload — goes through the pool.
	if linkSum != int64(len(par.LinkStats)) {
		t.Errorf("worker link counters sum to %d, report has %d check stats", linkSum, len(par.LinkStats))
	}
	var execShards, checkShards int
	for _, m := range snap.Managers {
		switch {
		case strings.HasPrefix(m.Name, "exec-shard."):
			execShards++
		case strings.HasPrefix(m.Name, "check-shard."):
			checkShards++
		}
		for _, c := range []string{"apply", "kreduce", "neg", "range"} {
			if _, ok := m.Caches[c]; !ok {
				t.Errorf("manager %s missing %s cache counters", m.Name, c)
			}
		}
	}
	if execShards == 0 || checkShards == 0 {
		t.Errorf("registry recorded %d exec shards, %d check shards; want both > 0", execShards, checkShards)
	}
	if kt, ok := snap.TimersMS["check/kreduce"]; !ok || kt.Count == 0 {
		t.Errorf("check/kreduce timer missing or empty: %+v", snap.TimersMS)
	}
}

// TestParallelWorkerFloor checks the degenerate worker counts fall back to
// the sequential path.
func TestParallelWorkerFloor(t *testing.T) {
	spec, err := config.ParseSpecString(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1} {
		eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
		v := NewParallelVerifier(eng, spec.Flows, w)
		if v.workers != 1 {
			t.Fatalf("workers=%d should use the sequential path", w)
		}
		rep := mustRun(t, func() (*Report, error) { return v.Run(nil, nil, 1.0) })
		if rep.FlowsTotal != len(spec.Flows) {
			t.Fatalf("unexpected flow count %d", rep.FlowsTotal)
		}
	}
}

const tinySpec = `
router a as 65001 loopback 10.0.0.1
router b as 65001 loopback 10.0.0.2
link a b cost 10 capacity 100

auto-bgp-mesh

config a
  network 192.168.1.0/24
config b
  network 192.168.2.0/24

flow f1 ingress a src 192.168.1.5 dst 192.168.2.5 gbps 10
failures k 1 mode links
`
