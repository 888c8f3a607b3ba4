package serve_test

import (
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/serve"
)

// TestIGPCarriedAcrossVersions: a version whose topology, failure mode and
// budget equal the previous build's replays that build's sealed IS-IS
// result instead of computing it — one serve.igp_carried per build, for
// every delta kind that leaves the topology alone — while a link-cost
// delta and a reload onto a topology with one more link compute their
// own. Every version's report is byte-identical to a cold verify of its
// text.
func TestIGPCarriedAcrossVersions(t *testing.T) {
	spec, text := serve.WANText(t, 30, 60, 12, 400, 7)
	net := spec.Net
	var router, neighbor string
	for _, r := range net.Routers {
		if rc, ok := spec.Configs[r.Name]; ok && len(rc.Neighbors) > 0 {
			router, neighbor = r.Name, rc.Neighbors[0].Addr.String()
			break
		}
	}
	if router == "" {
		t.Fatal("the generated WAN has no BGP session")
	}
	f, pfx := spec.Flows[0], gen.Prefixes(spec)[0].String()
	link := net.Link(0)

	opts := yu.VerifyOptions{K: 1, OverloadFactor: 1}
	s := serve.NewServer(serve.Config{K: 1, OverloadFactor: 1})
	carried := func() int64 { return s.Metrics().Snapshot().Counters["serve.igp_carried"] }
	check := func(what string, want int64) {
		t.Helper()
		res := mustReport(t, s)
		cur, _ := s.SpecText()
		cspec, err := config.ParseSpecString(cur)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := yu.FromSpec(cspec).Verify(opts)
		if err != nil {
			t.Fatalf("%s: cold verify: %v", what, err)
		}
		if cold := canon.FormatReport(cspec.Net, rep); res.Text != cold {
			t.Fatalf("%s: report differs from a cold verify of the version's text\n--- daemon\n%s--- cold\n%s", what, res.Text, cold)
		}
		if got := carried(); got != want {
			t.Fatalf("%s: serve.igp_carried = %d, want %d", what, got, want)
		}
	}
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	check("first load", 0)

	step := func(want int64, d serve.Delta) {
		t.Helper()
		if _, err := s.ApplyDeltas([]serve.Delta{d}); err != nil {
			t.Fatalf("%s: %v", d.Op, err)
		}
		check(d.Op, want)
	}
	n := carried()
	for _, d := range []serve.Delta{
		{Op: "add-flow", Flow: "extra", Ingress: net.Routers[1].Name, Src: "10.250.0.1", Dst: f.Dst.String(), Gbps: 3},
		{Op: "add-static", Router: router, Prefix: "55.0.0.0/8", Discard: true},
		{Op: "set-local-pref", Router: router, Neighbor: neighbor, LocalPref: 250},
		{Op: "add-export-deny", Router: router, Neighbor: neighbor, Prefix: pfx},
		{Op: "remove-flow", Flow: "extra"},
		{Op: "remove-static", Router: router, Prefix: "55.0.0.0/8"},
		{Op: "remove-export-deny", Router: router, Neighbor: neighbor, Prefix: pfx},
	} {
		n++
		step(n, d)
	}
	// A new cost is a new topology: computed, then carried to the next.
	step(n, serve.Delta{Op: "set-link-cost", A: net.Router(link.A).Name, B: net.Router(link.B).Name, Cost: link.CostAB + 7})
	n++
	step(n, serve.Delta{Op: "add-static", Router: router, Prefix: "56.0.0.0/8", Discard: true})

	cur, _ := s.SpecText()
	a, b := net.Routers[0].Name, net.Routers[len(net.Routers)-1].Name
	if _, err := s.LoadSpecText(cur + "link " + a + " " + b + " cost 10 capacity 100 addr-a 10.254.0.0 addr-b 10.254.0.1\n"); err != nil {
		t.Fatal(err)
	}
	check("reload with one more link", n)
	if _, err := s.LoadSpecText(cur); err != nil {
		t.Fatal(err)
	}
	check("reload back: the server carries the latest topology's IS-IS only", n)
}
