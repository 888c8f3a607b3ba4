package tlp_test

import (
	"math"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

func motivating(t *testing.T) *yu.Network {
	t.Helper()
	net, err := yu.LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mustPortfolio(t *testing.T, net *yu.Network, text string) []topo.TLProp {
	t.Helper()
	props, err := config.ParsePortfolioString(text, net.Topology())
	if err != nil {
		t.Fatal(err)
	}
	return props
}

// TestPortfolioMotivating evaluates a mixed portfolio on the Figure 1
// network under k=2 and checks verdicts against the paper's known
// worst-case loads (C->E carries 100 Gbps when B-D fails).
func TestPortfolioMotivating(t *testing.T) {
	net := motivating(t)
	props := mustPortfolio(t, net, `
		tlp util 0.95                               # violated: C->E hits 100 on 100-capacity
		tlp link C-E max 95                         # violated
		tlp dirlink E->C max 95                     # holds: reverse direction is idle
		tlp delivered 100.0.0.0/24 min 70           # violated under k=2 (both E-F links fail)
		tlp ratio 100.0.0.0/24 min 0.7              # same property as a ratio of the 100G offered
		tlp link C-E max 50 if-failed B-D           # violated: C->E=100 when B-D is down
		tlp link D-E max 105 if-failed B-D          # holds: total traffic is only 100
	`)
	reg := yu.NewMetrics()
	res, err := net.VerifyPortfolio(props, yu.VerifyOptions{K: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := []tlp.Status{
		tlp.StatusViolated, tlp.StatusViolated, tlp.StatusHolds,
		tlp.StatusViolated, tlp.StatusViolated, tlp.StatusViolated, tlp.StatusHolds,
	}
	for i, w := range want {
		if res.Verdicts[i].Status != w {
			t.Errorf("prop %d (%s): status %v, want %v",
				i, canon.FormatProp(net.Topology(), props[i]), res.Verdicts[i].Status, w)
		}
	}
	if res.Holds {
		t.Error("portfolio reported holds despite violations")
	}
	// The conditional witness must include the guard link B-D.
	vd := res.Verdicts[5]
	found := false
	for _, l := range vd.FailedLinks {
		if net.Topology().LinkName(l) == "B-D" {
			found = true
		}
	}
	if !found {
		t.Errorf("conditional witness %v does not include guard B-D", vd.FailedLinks)
	}
	if vd.Value != 100 {
		t.Errorf("conditional worst value %.9g, want 100", vd.Value)
	}
	// Ratio verdict reports in ratio units: 100 G offered, min 0.7.
	if rv := res.Verdicts[4]; rv.Value >= 0.7 {
		t.Errorf("ratio worst value %.9g, want < 0.7", rv.Value)
	}

	// Scan sharing: the util property alone touches all 18 directed links;
	// the whole portfolio must not scan any link twice.
	if res.Stats.LinkScans != 2*net.Topology().NumLinks() {
		t.Errorf("link scans %d, want %d (one per directed link)",
			res.Stats.LinkScans, 2*net.Topology().NumLinks())
	}
	if res.Stats.DeliveredScans != 1 {
		t.Errorf("delivered scans %d, want 1 (two prefix properties share one)", res.Stats.DeliveredScans)
	}
	counters := reg.Snapshot().Counters
	if counters["tlp.link_scans"] != int64(res.Stats.LinkScans) {
		t.Errorf("tlp.link_scans counter %d != stats %d", counters["tlp.link_scans"], res.Stats.LinkScans)
	}
	if counters["tlp.properties"] != int64(len(props)) {
		t.Errorf("tlp.properties counter %d != %d", counters["tlp.properties"], len(props))
	}
	if res.Stats.RestrictScans == 0 {
		t.Error("conditional properties ran without any restrict scan")
	}
}

// TestPortfolioWorkerByteIdentity: Workers is accepted and ignored — the
// canonical portfolio report is byte-identical at every worker count.
func TestPortfolioWorkerByteIdentity(t *testing.T) {
	net := motivating(t)
	props := mustPortfolio(t, net, `
		tlp util 0.95
		tlp link C-E max 95
		tlp delivered 100.0.0.0/24 min 70
		tlp link C-E max 50 if-failed B-D
	`)
	var base string
	for _, workers := range []int{1, 2, 4} {
		res, err := net.VerifyPortfolio(props, yu.VerifyOptions{K: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		text := canon.FormatPortfolio(net.Topology(), res)
		if workers == 1 {
			base = text
			continue
		}
		if text != base {
			t.Errorf("workers=%d report differs:\n%s\n--- vs workers=1 ---\n%s", workers, text, base)
		}
	}
	if !strings.Contains(base, "group when") {
		t.Errorf("report has no violation groups:\n%s", base)
	}
}

// TestCompileRejectsMalformed checks that malformed portfolios error
// instead of panicking.
func TestCompileRejectsMalformed(t *testing.T) {
	net := motivating(t)
	topoNet := net.Topology()
	flows := net.Spec().Flows
	bad := []topo.TLProp{
		{Kind: topo.TLPLinkLoad, Link: topo.LinkID(999), Max: 1},
		{Kind: topo.TLPLinkLoad, Link: 0, Min: 5, Max: 1},
		{Kind: topo.TLPLinkLoad, Link: 0, Max: math.NaN()},
		{Kind: topo.TLPUtil, AllLinks: true, Factor: 0},
		{Kind: topo.TLPUtil, AllLinks: true, Factor: math.NaN()},
		{Kind: topo.TLPDelivered, Max: 1},
		{Kind: topo.TLPKind(42)},
		{Kind: topo.TLPLinkLoad, Link: 0, Max: 1, CondSet: true, CondLink: topo.LinkID(999)},
	}
	for i, p := range bad {
		if _, err := tlp.Compile(topoNet, flows, []topo.TLProp{p}); err == nil {
			t.Errorf("bad prop %d compiled without error: %+v", i, p)
		}
	}
	if _, err := tlp.Compile(topoNet, flows, nil); err != nil {
		t.Errorf("empty portfolio must compile: %v", err)
	}
}

// TestRatioZeroOfferedVacuous: a ratio on a prefix no flow targets is
// vacuously true and costs no scan.
func TestRatioZeroOfferedVacuous(t *testing.T) {
	net := motivating(t)
	props := mustPortfolio(t, net, "tlp ratio 203.0.113.0/24 min 0.99")
	res, err := net.VerifyPortfolio(props, yu.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdicts[0].Status != tlp.StatusVacuous {
		t.Errorf("status %v, want vacuous", res.Verdicts[0].Status)
	}
	if !res.Holds || res.Stats.DeliveredScans != 0 {
		t.Errorf("holds=%v delivered scans=%d, want true/0", res.Holds, res.Stats.DeliveredScans)
	}
}

// TestCondUnfailableGuardVacuous: a condition on a nofail link can never
// trigger, so the property is vacuous.
func TestCondUnfailableGuardVacuous(t *testing.T) {
	spec := strings.Replace(paperex.Motivating,
		"link B D cost 10000 capacity 100 addr-a 2.4.0.1 addr-b 2.4.0.2",
		"link B D cost 10000 capacity 100 addr-a 2.4.0.1 addr-b 2.4.0.2 nofail", 1)
	net, err := yu.LoadString(spec)
	if err != nil {
		t.Fatal(err)
	}
	props := mustPortfolio(t, net, "tlp link C-E max 50 if-failed B-D")
	res, err := net.VerifyPortfolio(props, yu.VerifyOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdicts[0].Status != tlp.StatusVacuous {
		t.Errorf("status %v, want vacuous", res.Verdicts[0].Status)
	}
}
