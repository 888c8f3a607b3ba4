package core

// NewParallelVerifier is kept, with its worker count, for benchmark/ — and it
// is NewVerifier. These tests hold it to that at every worker count, on two
// fresh engines of one input, and hold the one check loop's slots to their
// invariants when a stop or a budget skip cuts it short.

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/topo"
)

// runBoth verifies the same workload with NewVerifier and with
// NewParallelVerifier at 4 workers, each on a fresh engine, and requires
// identical Reports.
func runBoth(t *testing.T, name string, spec *config.Spec, flows []topo.Flow, mode topo.FailureMode, k int, opts Options, overload float64, delivered []topo.DeliveredBound) {
	t.Helper()
	seqEng := buildEngine(t, spec, mode, k, opts)
	seq := mustRun(t, func() (*Report, error) { return NewVerifier(seqEng, flows).Run(spec.Props, delivered, overload) })

	parEng := buildEngine(t, spec, mode, k, opts)
	par := mustRun(t, func() (*Report, error) {
		return NewParallelVerifier(parEng, flows, 4).Run(spec.Props, delivered, overload)
	})

	reportsEqual(t, name, seq, par)
}

// TestParallelMatchesSequentialFatTree: on the FT-4 fixture a run at 4
// workers is the one-worker run, violations and per-link stats included.
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

// TestParallelMatchesSequentialWAN: the same on a WAN fixture, with a
// delivered bound and a tight overload factor that produces violations.
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
	bounded := *spec
	bounded.Props = capacityBounds(spec.Net, 0.5)
	runBoth(t, "wan-unpruned", &bounded, flows, topo.FailLinks, 1, Options{}, 0, nil)
}

// TestParallelExecutionSharding: NewParallelVerifier on an engine that has
// already executed the flows hands back the very STF nodes NewVerifier built
// there — a second pass over the engine's step caches and memo rebuilds
// nothing differently.
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
	par := NewParallelVerifier(eng, flows, 3)
	if len(seq.FlowSTFs()) != len(par.FlowSTFs()) {
		t.Fatalf("%d STFs on the first pass vs %d on the second", len(seq.FlowSTFs()), len(par.FlowSTFs()))
	}
	for i, a := range seq.FlowSTFs() {
		if err := sameSTF(par.FlowSTFs()[i], a); err != nil {
			t.Fatalf("STF %d: %v", i, err)
		}
	}
}

// checkLinkPartition asserts the slot invariant of the check loop: every
// directed link of the network appears in exactly one of Report.LinkStats or
// Report.Unchecked — no link is dropped, and no slot left not done leaks a
// stat or a violation into the report.
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

// TestParallelStopLeavesNoPartialSlots cancels the check loop mid-run: the
// links whose check never completed land in Unchecked, the completed ones
// keep their stats, and the two sets partition the directed links.
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
	ctx := &pollCancelCtx{Context: context.Background()}
	v := NewParallelVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{Ctx: ctx}), flows, 4)
	if v.err != nil {
		t.Fatal(v.err)
	}
	// Armed only now, so the stop fires inside the check loop.
	ctx.arm(8)
	rep, err := v.Run(nil, nil, 1.0)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(rep.Unchecked) == 0 || len(rep.LinkStats) == 0 {
		t.Fatalf("%d links checked, %d unchecked: the stop did not land mid-loop", len(rep.LinkStats), len(rep.Unchecked))
	}
	if !rep.Incomplete || rep.Holds {
		t.Fatalf("Incomplete=%v Holds=%v after a canceled check loop", rep.Incomplete, rep.Holds)
	}
	checkLinkPartition(t, spec.Net, rep)
}

// TestParallelBudgetDegradeSkipPartition drives the check loop into
// node-budget skips under the degrade policy: a skipped link is reported
// unchecked, never as a zero-value stat, and the partition invariant holds.
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
	rep, err := NewParallelVerifier(eng, flows, 4).Run(nil, nil, 1.0)
	if err != nil {
		t.Fatalf("degrade policy must not surface budget errors: %v", err)
	}
	checkLinkPartition(t, spec.Net, rep)
	if len(rep.Unchecked) > 0 && (!rep.Incomplete || rep.Holds) {
		t.Fatalf("Incomplete=%v Holds=%v with %d unchecked links",
			rep.Incomplete, rep.Holds, len(rep.Unchecked))
	}
}

// TestParallelMatchesSequentialWithMetrics: instrumentation is a pure side
// channel — with a registry attached the report is the one without — and the
// registry accounts for every class and every check once, in the stage
// counters, with no per-worker counter left.
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

	plain := mustRun(t, func() (*Report, error) {
		return NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows).Run(spec.Props, delivered, 0.5)
	})
	reg := obs.New()
	got := mustRun(t, func() (*Report, error) {
		return NewParallelVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{Obs: reg}), flows, 4).Run(spec.Props, delivered, 0.5)
	})
	reportsEqual(t, "wan-metrics", plain, got)

	snap := reg.Snapshot()
	c := snap.Counters
	if sum := c["exec.flows_executed"] + c["exec.classes_shared"]; sum != int64(got.FlowsExecuted) {
		t.Errorf("exec counters sum to %d, report says %d executed", sum, got.FlowsExecuted)
	}
	if c["exec.classes_imported"] != 0 {
		t.Errorf("%d classes imported on a run with one manager", c["exec.classes_imported"])
	}
	// Every check item — bounds, delivered, overload — ends one of three ways.
	if ends := c["check.links_bounded"] + c["check.links_decided"] + c["check.links_built"]; ends != int64(len(got.LinkStats)) {
		t.Errorf("check counters end %d loads, report has %d check stats", ends, len(got.LinkStats))
	}
	for name := range c {
		if strings.HasPrefix(name, "worker.") || strings.HasPrefix(name, "sched.") && name != "sched.class_dedup_hits" {
			t.Errorf("counter %s on a run with one manager", name)
		}
	}
	if kt, ok := snap.TimersMS["check/kreduce"]; !ok || kt.Count == 0 {
		t.Errorf("check/kreduce timer missing or empty: %+v", snap.TimersMS)
	}
}

// TestParallelWorkerFloor: every worker count — none, one, many — takes the
// one path and reports one worker.
func TestParallelWorkerFloor(t *testing.T) {
	spec, err := config.ParseSpecString(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 0, 1, 4} {
		eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
		v := NewParallelVerifier(eng, spec.Flows, w)
		if st := v.SchedStats(); st.Workers != 1 {
			t.Fatalf("workers=%d: SchedStats %+v, want one worker", w, st)
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
