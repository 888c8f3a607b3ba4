package serve_test

import (
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/serve"
)

// TestBGPCarriedAcrossVersions: every build replays the BGP prefixes whose
// inputs the previous build saw unchanged and recomputes the rest — a new
// or re-originated prefix, an export-deny entry's prefix — while a
// local-pref or link-cost delta and a reload onto another topology
// recompute every prefix. The carried and recomputed counts are pinned per
// delta kind, and every version's report is byte-identical to a cold
// verify of its text.
func TestBGPCarriedAcrossVersions(t *testing.T) {
	spec, _ := serve.WANText(t, 30, 60, 12, 400, 7)
	net := spec.Net
	var router, other, neighbor string
	for _, r := range net.Routers {
		rc, ok := spec.Configs[r.Name]
		switch {
		case !ok || len(rc.Neighbors) == 0:
		case router == "":
			router, neighbor = r.Name, rc.Neighbors[0].Addr.String()
		case other == "":
			other = r.Name
		}
	}
	if other == "" {
		t.Fatal("the generated WAN has fewer than two BGP speakers")
	}
	// One router redistributes its statics: there a static is a BGP input.
	spec.Configs[router].RedistributeStatic = true
	text, err := canon.FormatSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, pfx := spec.Flows[0], gen.Prefixes(spec)[0].String()
	all := int64(len(gen.Prefixes(spec)))
	link := net.Link(0)

	opts := yu.VerifyOptions{K: 1, OverloadFactor: 1}
	s := serve.NewServer(serve.Config{K: 1, OverloadFactor: 1})
	counts := func() (int64, int64) {
		c := s.Metrics().Snapshot().Counters
		return c["serve.bgp_prefixes_carried"], c["serve.bgp_prefixes_recomputed"]
	}
	check := func(what string, carried, recomputed int64) {
		t.Helper()
		c0, r0 := counts()
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
		c1, r1 := counts()
		if c1-c0 != carried || r1-r0 != recomputed {
			t.Fatalf("%s: %d BGP prefixes carried and %d recomputed, want %d and %d", what, c1-c0, r1-r0, carried, recomputed)
		}
	}
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	check("first load", 0, all)

	for _, step := range []struct {
		d                   serve.Delta
		carried, recomputed int64
	}{
		{serve.Delta{Op: "add-flow", Flow: "extra", Ingress: net.Routers[1].Name, Src: "10.250.0.1", Dst: f.Dst.String(), Gbps: 3}, all, 0},
		// A new prefix, redistributed: recomputed alone.
		{serve.Delta{Op: "add-static", Router: router, Prefix: "55.0.0.0/8", Discard: true}, all, 1},
		{serve.Delta{Op: "set-local-pref", Router: router, Neighbor: neighbor, LocalPref: 250}, 0, all + 1},
		{serve.Delta{Op: "add-export-deny", Router: router, Neighbor: neighbor, Prefix: pfx}, all, 1},
		{serve.Delta{Op: "remove-flow", Flow: "extra"}, all + 1, 0},
		// The prefix goes with its only origin: nothing to recompute.
		{serve.Delta{Op: "remove-static", Router: router, Prefix: "55.0.0.0/8"}, all, 0},
		{serve.Delta{Op: "remove-export-deny", Router: router, Neighbor: neighbor, Prefix: pfx}, all - 1, 1},
		// A new cost moves IS-IS, which every session reads.
		{serve.Delta{Op: "set-link-cost", A: net.Router(link.A).Name, B: net.Router(link.B).Name, Cost: link.CostAB + 7}, 0, all},
		// A static on a router that does not redistribute is no BGP input.
		{serve.Delta{Op: "add-static", Router: other, Prefix: "56.0.0.0/8", Discard: true}, all, 0},
	} {
		if _, err := s.ApplyDeltas([]serve.Delta{step.d}); err != nil {
			t.Fatalf("%s: %v", step.d.Op, err)
		}
		check(step.d.Op, step.carried, step.recomputed)
	}

	cur, _ := s.SpecText()
	a, b := net.Routers[0].Name, net.Routers[len(net.Routers)-1].Name
	if _, err := s.LoadSpecText(cur + "link " + a + " " + b + " cost 10 capacity 100 addr-a 10.254.0.0 addr-b 10.254.0.1\n"); err != nil {
		t.Fatal(err)
	}
	check("reload with one more link", 0, all)
	if _, err := s.LoadSpecText(cur); err != nil {
		t.Fatal(err)
	}
	check("reload back: the server carries the latest build's BGP only", 0, all)
}
