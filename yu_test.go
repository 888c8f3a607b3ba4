package yu

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/paperex"
)

func loadMotivating(t testing.TB) *Network {
	t.Helper()
	n, err := LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLoadAndVerifyMotivating(t *testing.T) {
	n := loadMotivating(t)
	if n.Topology().NumRouters() != 6 {
		t.Fatalf("routers = %d", n.Topology().NumRouters())
	}
	rep, err := n.Verify(VerifyOptions{OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("P2 must be violated under 1-link failures")
	}
	if rep.MTBDDNodes == 0 || rep.Elapsed == 0 {
		t.Error("stats missing")
	}
	for _, v := range rep.Violations {
		s := v.Describe(n.Topology())
		if !strings.Contains(s, "Gbps") {
			t.Errorf("Describe = %q", s)
		}
	}
}

func TestEnginesAgreeOnMotivating(t *testing.T) {
	n := loadMotivating(t)
	yuRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	enumRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.95, Engine: EngineEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	if yuRep.Holds != enumRep.Holds {
		t.Fatalf("YU holds=%v, enumeration holds=%v", yuRep.Holds, enumRep.Holds)
	}
	// Both must flag the same set of overloadable directed links.
	linksOf := func(rep *Report) map[string]bool {
		out := make(map[string]bool)
		for _, v := range rep.Violations {
			if v.Kind == "link-load" {
				out[n.Topology().DirLinkName(v.Link)] = true
			}
		}
		return out
	}
	yuLinks, enLinks := linksOf(yuRep), linksOf(enumRep)
	if len(yuLinks) != len(enLinks) {
		t.Fatalf("flagged links differ: YU=%v enum=%v", yuLinks, enLinks)
	}
	for l := range yuLinks {
		if !enLinks[l] {
			t.Errorf("link %s flagged by YU only", l)
		}
	}
	if enumRep.Scenarios == 0 {
		t.Error("enumeration must count scenarios")
	}
}

func TestAblationsStillCorrect(t *testing.T) {
	n := loadMotivating(t)
	base, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []VerifyOptions{
		{K: 1, OverloadFactor: 0.95, DisableKReduce: true},
		{K: 1, OverloadFactor: 0.95, DisableLinkLocalEquiv: true},
		{K: 1, OverloadFactor: 0.95, DisableGlobalEquiv: true},
	} {
		rep, err := n.Verify(opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Holds != base.Holds || len(rep.Violations) != len(base.Violations) {
			t.Errorf("ablation %+v changed the verdict: %d vs %d violations",
				opts, len(rep.Violations), len(base.Violations))
		}
		for _, v := range rep.Violations {
			if len(v.FailedLinks)+len(v.FailedRouters) > 1 {
				t.Errorf("ablation %+v produced a witness beyond k=1", opts)
			}
		}
	}
}

func TestShortestPathEngineOnFatTree(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 6, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := FromSpec(spec)
	spRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows, Engine: EngineShortestPath})
	if err != nil {
		t.Fatal(err)
	}
	yuRep, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	// On a pure-eBGP FatTree the QARC model is faithful, so verdicts
	// must agree.
	if spRep.Holds != yuRep.Holds {
		t.Errorf("QARC-style holds=%v, YU holds=%v", spRep.Holds, yuRep.Holds)
	}
}

func TestRouterFailureMode(t *testing.T) {
	n := loadMotivating(t)
	rep, err := n.Verify(VerifyOptions{K: 1, Mode: FailRouters, ModeSet: true, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// Failing router D forces all of f2 through C: C-E overloads.
	found := false
	for _, v := range rep.Violations {
		for _, r := range v.FailedRouters {
			if n.Topology().Router(r).Name == "D" {
				found = true
			}
		}
		if len(v.FailedLinks) != 0 {
			t.Error("link failures must not appear in router mode")
		}
	}
	if !found {
		t.Error("expected a router-D violation")
	}
}

func TestVerifySpecProperties(t *testing.T) {
	// The spec's own P1 (delivered >= 70) holds at k=1.
	n := loadMotivating(t)
	rep, err := n.Verify(VerifyOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("P1 must hold at k=1: %+v", rep.Violations)
	}
}

// TestResolveK pins VerifyOptions.K: it overrides the spec's failure
// budget only when > 0 (cmd/yu -k: "0 = use the spec's").
func TestResolveK(t *testing.T) {
	n := loadMotivating(t)
	for opt, want := range map[int]int{-1: n.Spec().K, 0: n.Spec().K, 2: 2} {
		if got := n.resolve(VerifyOptions{K: opt}).k; got != want {
			t.Errorf("K: %d resolves to k=%d, want %d", opt, got, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadString("bogus"); err == nil {
		t.Error("bad spec must fail")
	}
	if _, err := LoadFile("/nonexistent/x.yu"); err == nil {
		t.Error("missing file must fail")
	}
}

// TestPerformanceSmoke keeps the paper-scale configurations within a
// sane wall-clock envelope so regressions surface in CI.
func TestPerformanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 5, 21.0/56.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := FromSpec(spec).Verify(VerifyOptions{K: 2, OverloadFactor: 1.0, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FT-4 k=2 %d flows: %v (%d MTBDD nodes, %d violations)",
		len(flows), rep.Elapsed, rep.MTBDDNodes, len(rep.Violations))
	if time.Since(start) > 2*time.Minute {
		t.Errorf("FT-4 k=2 took %v, expected well under 2m", time.Since(start))
	}
}

func TestBothFailureMode(t *testing.T) {
	n := loadMotivating(t)
	rep, err := n.Verify(VerifyOptions{K: 1, Mode: FailBoth, ModeSet: true, OverloadFactor: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// Both link and router witnesses must be representable; at k=1 the
	// link-failure violations of P2 must still be found.
	if rep.Holds {
		t.Fatal("P2 must be violated in both-mode too")
	}
	sawLink, sawRouter := false, false
	for _, v := range rep.Violations {
		if len(v.FailedLinks)+len(v.FailedRouters) > 1 {
			t.Errorf("witness exceeds k=1: %+v", v)
		}
		if len(v.FailedLinks) == 1 {
			sawLink = true
		}
		if len(v.FailedRouters) == 1 {
			sawRouter = true
		}
	}
	if !sawLink && !sawRouter {
		t.Error("expected at least one nonempty witness")
	}
}

// TestVerifyWorkersMatchesSequential: through the public API, Workers is
// accepted and ignored — identical violations and stats at 4 as at the
// default.
func TestVerifyWorkersMatchesSequential(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: 300, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 107,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := FromSpec(spec)
	seq, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.6, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	par, err := n.Verify(VerifyOptions{K: 1, OverloadFactor: 0.6, Flows: flows, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Holds != par.Holds || len(seq.Violations) != len(par.Violations) {
		t.Fatalf("sequential holds=%v/%d violations, workers=4 holds=%v/%d",
			seq.Holds, len(seq.Violations), par.Holds, len(par.Violations))
	}
	for i := range seq.Violations {
		a, b := seq.Violations[i], par.Violations[i]
		if a.Kind != b.Kind || a.Link != b.Link || a.Value != b.Value {
			t.Fatalf("violation %d differs: %+v vs %+v", i, a, b)
		}
	}
	if seq.FlowsExecuted != par.FlowsExecuted || len(seq.LinkStats) != len(par.LinkStats) {
		t.Fatalf("stats differ: executed %d vs %d, link stats %d vs %d",
			seq.FlowsExecuted, par.FlowsExecuted, len(seq.LinkStats), len(par.LinkStats))
	}
}

// TestComposeFallbackPhases forces the wholesale compose fallback — an SR
// policy whose segment list leaves its domain makes that domain
// incomposable — and holds the phase record to the wall clock: the failed
// composition is the "compose" phase and must not be counted a second time
// as route simulation. The run has no flows, so composition dominates it.
func TestComposeFallbackPhases(t *testing.T) {
	raw, err := os.ReadFile("testdata/wan-1.yu")
	if err != nil {
		t.Fatal(err)
	}
	// d0r5 steers via d2r3, a router of another domain.
	n, err := LoadString(string(raw) + `
config d0r5
  sr-policy 10.0.0.8/32
    path 10.0.0.28 10.0.0.8 weight 1
`)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	rep, err := n.Verify(VerifyOptions{Domains: n.Spec().Domains, Flows: []Flow{}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Modular != nil {
		t.Fatal("composition succeeded; the fixture no longer forces the fallback")
	}
	phase := make(map[string]time.Duration)
	for _, p := range reg.Snapshot().Phases {
		phase[p.Path] = time.Duration(p.MS * float64(time.Millisecond))
	}
	if phase["compose"] <= 0 || phase["routesim"] <= 0 {
		t.Fatalf("phases compose=%v routesim=%v, want both recorded", phase["compose"], phase["routesim"])
	}
	if sum := phase["compose"] + phase["routesim"]; sum > rep.Elapsed {
		t.Fatalf("compose %v + routesim %v = %v exceeds the run's %v",
			phase["compose"], phase["routesim"], sum, rep.Elapsed)
	}
}
