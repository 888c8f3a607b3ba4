package compose_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Direct tests of Build: the difftest sweeps only see it through
// yu.Verify, where a failed build silently becomes a monolithic run.

const overload = 1.0

func multiDomain(t testing.TB, ms gen.MultiDomainSpec) *config.Spec {
	t.Helper()
	spec, err := gen.MultiDomain(ms)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func build(t testing.TB, spec *config.Spec, domains map[string][]string, opts compose.Options) *compose.Built {
	t.Helper()
	part, err := topo.NewPartition(spec.Net, domains)
	if err != nil {
		t.Fatal(err)
	}
	opts.K, opts.Mode = spec.K, spec.Mode
	b, err := compose.Build(spec.Net, spec.Configs, part, spec.Flows, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return b
}

// checked runs the spec's properties on a built verifier and renders the
// report the way every byte-identity oracle of the repo does.
func checked(t testing.TB, spec *config.Spec, b *compose.Built) string {
	t.Helper()
	rep, err := b.Verifier.Run(spec.Props, spec.Delivered, overload)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return canon.FormatReport(spec.Net, &yu.Report{
		Violations: rep.Violations, Holds: rep.Holds,
		FlowsTotal: rep.FlowsTotal, FlowsExecuted: rep.FlowsExecuted, LinkStats: rep.LinkStats,
		Incomplete: rep.Incomplete, Unchecked: rep.Unchecked, UncheckedDelivered: rep.UncheckedDelivered,
	})
}

func monolithic(t testing.TB, spec *config.Spec) string {
	t.Helper()
	rep, err := yu.FromSpec(spec).Verify(yu.VerifyOptions{OverloadFactor: overload})
	if err != nil {
		t.Fatalf("monolithic Verify: %v", err)
	}
	return canon.FormatReport(spec.Net, rep)
}

func sameReport(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("compositional report differs from monolithic\n--- monolithic ---\n%s--- compositional ---\n%s", want, got)
	}
}

// TestBuildContainsIntraDomainTraffic: on the blueprint compositional
// verification is built for, every class is executed inside its domain,
// the lockstep BGP converges within its round bound, each domain manager
// stays well under the whole network's state, and the report is the
// monolithic one byte for byte.
func TestBuildContainsIntraDomainTraffic(t *testing.T) {
	ms := gen.MultiDomainSpec{Domains: 4, RoutersPer: 6, PrefixesPer: 3, FlowsPer: 6, K: 2, Seed: 7}
	spec := multiDomain(t, ms)
	b := build(t, spec, spec.Domains, compose.Options{})
	st := b.Stats
	if st.Domains != ms.Domains || st.BorderLinks != ms.Domains {
		t.Errorf("%d domains, %d border links; want %d of each (one backbone ring)", st.Domains, st.BorderLinks, ms.Domains)
	}
	if st.Rounds < 2 || st.Rounds > spec.Net.RoundBound() {
		t.Errorf("lockstep BGP: %d rounds (bound %d)", st.Rounds, spec.Net.RoundBound())
	}
	// Every domain steps every lockstep round, and says what it cost.
	if rs := st.RouteSim; rs.BGPRounds != st.Domains*st.Rounds || rs.IGPLevels == 0 || rs.BGPEntries == 0 ||
		rs.BGPRecomputed < rs.BGPEntries || rs.BGPRecomputed >= rs.BGPRounds*rs.BGPEntries {
		t.Errorf("route-sim stats summed over the domains: %+v", rs)
	}
	monoRep, err := yu.FromSpec(spec).Verify(yu.VerifyOptions{OverloadFactor: overload})
	if err != nil {
		t.Fatal(err)
	}
	if st.FallbackClasses != 0 || st.ContainedClasses == 0 || st.ContainedClasses != monoRep.FlowsExecuted {
		t.Errorf("%d contained, %d fallback classes; the monolithic run executed %d",
			st.ContainedClasses, st.FallbackClasses, monoRep.FlowsExecuted)
	}
	if st.DomainPeakNodes == 0 || st.DomainPeakNodes >= monoRep.MTBDDNodes {
		t.Errorf("domain peak %d nodes, monolithic run ends with %d", st.DomainPeakNodes, monoRep.MTBDDNodes)
	}
	sameReport(t, checked(t, spec, b), canon.FormatReport(spec.Net, monoRep))
}

// TestBuildFallsBackForBorderCrossingFlows: a flow toward another
// domain's prefix leaves its domain over a border link, which a border
// summary cannot follow; its class must be counted as a fallback,
// executed on the check engine, and the report must not move.
func TestBuildFallsBackForBorderCrossingFlows(t *testing.T) {
	spec := multiDomain(t, gen.MultiDomainSpec{Domains: 3, RoutersPer: 5, PrefixesPer: 2, FlowsPer: 4, K: 1, Seed: 11})
	contained := build(t, spec, spec.Domains, compose.Options{}).Stats.ContainedClasses
	ingress, _ := spec.Net.RouterByName("d0r3")
	var crossing int
	for _, f := range spec.Flows {
		// Re-home domain 1's flows to a domain 0 ingress, under new names.
		if strings.HasPrefix(spec.Net.Router(f.Ingress).Name, "d1r") {
			spec.Flows = append(spec.Flows, topo.Flow{Name: "x-" + f.Name, Ingress: ingress.ID, Dst: f.Dst, Gbps: 1})
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("the blueprint has no domain 1 flows to re-home")
	}
	b := build(t, spec, spec.Domains, compose.Options{})
	if b.Stats.FallbackClasses == 0 || b.Stats.FallbackClasses > crossing {
		t.Errorf("%d fallback classes for %d border-crossing flows", b.Stats.FallbackClasses, crossing)
	}
	if b.Stats.ContainedClasses != contained {
		t.Errorf("contained classes moved from %d to %d when crossing flows were added", contained, b.Stats.ContainedClasses)
	}
	sameReport(t, checked(t, spec, b), monolithic(t, spec))
}

// TestBuildOnCoarserPartition: any AS-closed partition must do, not only
// the generator's one-AS-per-domain one — here two uneven domains, one of
// them three ASes wide, so eBGP sessions run inside a domain as well as
// across the border.
func TestBuildOnCoarserPartition(t *testing.T) {
	spec := multiDomain(t, gen.MultiDomainSpec{Domains: 4, RoutersPer: 5, PrefixesPer: 2, FlowsPer: 5, K: 2, Seed: 3})
	coarse := map[string][]string{"solo": spec.Domains["dom2"]}
	for _, d := range []string{"dom0", "dom1", "dom3"} {
		coarse["rest"] = append(coarse["rest"], spec.Domains[d]...)
	}
	b := build(t, spec, coarse, compose.Options{})
	if b.Stats.Domains != 2 || b.Stats.BorderLinks != 2 {
		t.Errorf("stats %+v; want 2 domains joined by 2 border links", b.Stats)
	}
	if b.Stats.FallbackClasses != 0 {
		t.Errorf("%d fallback classes: intra-AS traffic cannot cross a border of a coarser partition", b.Stats.FallbackClasses)
	}
	sameReport(t, checked(t, spec, b), monolithic(t, spec))
}

// TestBuildStopsWhenCanceled: a canceled context surfaces as the typed
// governance error (which yu.Verify does not turn into a monolithic run).
func TestBuildStopsWhenCanceled(t *testing.T) {
	spec := multiDomain(t, gen.MultiDomainSpec{Domains: 2, RoutersPer: 5, Seed: 5})
	part, err := topo.NewPartition(spec.Net, spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = compose.Build(spec.Net, spec.Configs, part, spec.Flows, compose.Options{K: spec.K, Mode: spec.Mode, Ctx: ctx})
	if !errors.Is(err, yu.ErrCanceled) {
		t.Fatalf("Build under a canceled context: %v, want ErrCanceled", err)
	}
}

// BenchmarkBuild is the compositional front half on a small instance of
// the benchmark's `modular` input: one manager per domain, lockstep
// rounds, per-domain execution, assembly.
func BenchmarkBuild(b *testing.B) {
	for _, ms := range []gen.MultiDomainSpec{
		{Domains: 4, RoutersPer: 8, PrefixesPer: 3, FlowsPer: 8, K: 2, Seed: 40},
		{Domains: 8, RoutersPer: 12, PrefixesPer: 4, FlowsPer: 8, K: 2, Seed: 40},
	} {
		b.Run(fmt.Sprintf("%dx%d", ms.Domains, ms.RoutersPer), func(b *testing.B) {
			spec := multiDomain(b, ms)
			b.ReportAllocs()
			b.ResetTimer()
			var st compose.Stats
			for i := 0; i < b.N; i++ {
				st = build(b, spec, spec.Domains, compose.Options{}).Stats
			}
			b.ReportMetric(float64(st.DomainPeakNodes), "domain-peak-nodes")
			b.ReportMetric(float64(st.Rounds), "rounds")
		})
	}
}

// TestBuildNotConverged: lockstep rounds that never stabilise are an
// error naming the entries still moving in every domain — not a Built
// whose Stats say Converged: false, and not something a monolithic retry
// could fix (it runs the same rounds).
func TestBuildNotConverged(t *testing.T) {
	text, err := os.ReadFile("../../testdata/notconverged/disagree.yu")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := config.ParseSpecString(string(text))
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.NewPartition(spec.Net, map[string][]string{"o": {"O"}, "a": {"A"}, "b": {"B"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compose.Build(spec.Net, spec.Configs, part, spec.Flows, compose.Options{K: spec.K, Mode: spec.Mode})
	var nc *routesim.ErrNotConverged
	if b != nil || !errors.As(err, &nc) {
		t.Fatalf("Build = %v, %v; want *routesim.ErrNotConverged", b, err)
	}
	if nc.Rounds != spec.Net.RoundBound() {
		t.Errorf("stopped after %d rounds, want the budget %d", nc.Rounds, spec.Net.RoundBound())
	}
	if got := strings.Join(nc.Changing, "; "); got != "A 100.9.0.0/24; B 100.9.0.0/24" {
		t.Errorf("still changing: %q, want A's entry (domain a) and B's (domain b)", got)
	}
}
