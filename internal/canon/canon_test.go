package canon

import (
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// lineNet is A - B - C: link 0 is A-B, link 1 is B-C.
func lineNet(t *testing.T) *topo.Network {
	t.Helper()
	spec, err := config.ParseSpecString(`
router A as 1 loopback 10.0.0.1
router B as 1 loopback 10.0.0.2
router C as 1 loopback 10.0.0.3
link A B cost 10 capacity 100
link B C cost 10 capacity 100
linkset cut A-B B-C
`)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Net
}

func dir(l topo.LinkID, d topo.Direction) topo.DirLinkID { return topo.MakeDirLinkID(l, d) }

// TestFormatReportViolations pins the body of a report rendering:
// violations stay in report order (not sorted), values print with %.9g,
// and an empty witness reads "nothing fails".
func TestFormatReportViolations(t *testing.T) {
	net := lineNet(t)
	rep := &yu.Report{
		FlowsTotal: 3, FlowsExecuted: 2,
		Violations: []core.Violation{
			{Kind: "link-load", Link: dir(1, topo.BtoA), Value: 137.2295821234, Min: 0, Max: 95,
				FailedLinks: []topo.LinkID{0}, FailedRouters: []topo.RouterID{2}},
			{Kind: "delivered", Prefix: netip.MustParsePrefix("10.1.0.0/26"), Value: 0, Min: 70, Max: 1e12},
			{Kind: "link-load", Link: dir(0, topo.AtoB), Value: 1.0 / 3, Max: 0.25},
		},
		LinkStats: []core.LinkCheckStat{
			{Kind: "delivered", Prefix: netip.MustParsePrefix("10.1.0.0/26"), Flows: 3, Classes: 1},
			{Link: dir(0, topo.AtoB), Flows: 2, Classes: 2},
		},
	}
	want := `holds false
flows 3 executed 2
violations 3
  link-load C->B value 137.229582 min 0 max 95 when link A-B router C
  delivered 10.1.0.0/26 value 0 min 70 max 1e+12 when nothing fails
  link-load A->B value 0.333333333 min 0 max 0.25 when nothing fails
checks 2
  delivered 10.1.0.0/26 flows 3 classes 1
  link A->B flows 2 classes 2
`
	if got := FormatReport(net, rep); got != want {
		t.Errorf("FormatReport =\n%s\nwant\n%s", got, want)
	}
}

// TestFormatReportGovernanceTail pins the governance lines: absent on a
// complete report, and sorted by name — whatever the marking order — on a
// partial one.
func TestFormatReportGovernanceTail(t *testing.T) {
	net := lineNet(t)
	const complete = "holds true\nflows 0 executed 0\nviolations 0\nchecks 0\n"
	if got := FormatReport(net, &yu.Report{Holds: true}); got != complete {
		t.Errorf("complete report =\n%s\nwant\n%s", got, complete)
	}
	rep := &yu.Report{
		Incomplete:         true,
		Unchecked:          []topo.DirLinkID{dir(1, topo.AtoB), dir(0, topo.BtoA), dir(0, topo.AtoB)},
		UncheckedDelivered: []netip.Prefix{netip.MustParsePrefix("20.0.0.0/8"), netip.MustParsePrefix("10.0.0.0/8")},
		DegradedFlows:      []string{"f2", "f1"},
	}
	want := "holds false\nflows 0 executed 0\nviolations 0\nchecks 0\n" +
		"incomplete true\n" +
		"unchecked links A->B B->A B->C\n" +
		"unchecked delivered 10.0.0.0/8 20.0.0.0/8\n" +
		"degraded flows f1 f2\n"
	if got := FormatReport(net, rep); got != want {
		t.Errorf("partial report =\n%s\nwant\n%s", got, want)
	}
	if rep.DegradedFlows[0] != "f2" {
		t.Error("FormatReport sorted the report's own DegradedFlows slice")
	}
}

// TestViolationKeys pins the property identity of a violation: kind plus
// subject, deduplicated across witnesses and sorted.
func TestViolationKeys(t *testing.T) {
	net := lineNet(t)
	pfx := netip.MustParsePrefix("10.1.0.0/26")
	got := ViolationKeys(net, []core.Violation{
		{Kind: "link-load", Link: dir(1, topo.AtoB), Value: 100, FailedLinks: []topo.LinkID{0}},
		{Kind: "delivered", Prefix: pfx},
		{Kind: "link-load", Link: dir(1, topo.AtoB), Value: 120, FailedLinks: []topo.LinkID{1}},
		{Kind: "link-load", Link: dir(1, topo.BtoA)},
		{Kind: "mystery"},
	})
	want := []string{"delivered 10.1.0.0/26", "link-load B->C", "link-load C->B", "unknown mystery"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ViolationKeys = %q, want %q", got, want)
	}
	if got := ViolationKeys(net, nil); len(got) != 0 {
		t.Errorf("ViolationKeys(nil) = %q, want empty", got)
	}
}

// TestFormatPortfolio pins the portfolio rendering: violated properties
// grouped under their witness in the result's group order, unchecked
// properties listed after the groups, and the ` agg N` tail printed only
// when aggregates were scanned.
func TestFormatPortfolio(t *testing.T) {
	net := lineNet(t)
	props := []topo.TLProp{
		{Kind: topo.TLPLinkLoad, Link: 0, Dir: topo.BtoA, DirSpecified: true, Min: 0, Max: 50},
		{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.95},
		{Kind: topo.TLPDelivered, Prefix: netip.MustParsePrefix("10.1.0.0/26"), Min: 70, Max: 1e12},
		{Kind: topo.TLPSumLoad, SetName: "cut", AggLinks: []topo.LinkID{0, 1}, Min: 0, Max: 10,
			CondSet: true, CondLink: 1},
		{Kind: topo.TLPRatio, Prefix: netip.MustParsePrefix("10.2.0.0/16"), Min: 0.5, Max: 1},
	}
	r := &tlp.Result{
		Props: props,
		Verdicts: []tlp.Verdict{
			{Status: tlp.StatusViolated, Value: 80, Excess: 30, FailedLinks: []topo.LinkID{1}},
			{Status: tlp.StatusViolated, Value: 137.2295821234, Excess: 42.2295821234, FailedLinks: []topo.LinkID{1}},
			{Status: tlp.StatusViolated, Value: 0, Excess: 70},
			{Status: tlp.StatusUnchecked},
			{Status: tlp.StatusVacuous},
		},
		Groups: []tlp.Group{
			{Props: []int{2}, MaxExcess: 70},
			{FailedLinks: []topo.LinkID{1}, Props: []int{1, 0}, MaxExcess: 42.2295821234},
		},
		Stats:      tlp.Stats{Properties: 5, Checks: 8, LinkScans: 4, DeliveredScans: 1, RestrictScans: 2, Violations: 3, Unchecked: 1},
		Incomplete: true,
	}
	want := `holds false
properties 5 violated 3 vacuous 1 unchecked 1
group when nothing fails max-excess 70
  delivered 10.1.0.0/26 min 70 max 1e+12 value 0 excess 70
group when link B-C max-excess 42.2295821
  util 0.95 value 137.229582 excess 42.2295821
  dirlink B->A max 50 value 80 excess 30
unchecked sumload cut max 10 if-failed B-C
scans link 4 delivered 1 restrict 2 checks 8
incomplete true
`
	if got := FormatPortfolio(net, r); got != want {
		t.Errorf("FormatPortfolio =\n%s\nwant\n%s", got, want)
	}
	r.Stats.AggScans = 2
	r.Incomplete = false
	got := FormatPortfolio(net, r)
	if wantTail := "scans link 4 delivered 1 restrict 2 checks 8 agg 2\n"; got[len(got)-len(wantTail):] != wantTail {
		t.Errorf("aggregate tail: FormatPortfolio ends\n%q\nwant\n%q", got[len(got)-len(wantTail):], wantTail)
	}
}

// TestFormatSpecRoundTripTestdata holds the spec renderer to its contract
// on every checked-in network: the rendering parses back, and rendering
// the parsed spec reproduces it byte for byte.
func TestFormatSpecRoundTripTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := config.ParseSpecString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text, err := FormatSpec(spec)
		if err != nil {
			t.Fatalf("%s: FormatSpec: %v", file, err)
		}
		back, err := config.ParseSpecString(text)
		if err != nil {
			t.Fatalf("%s: rendering does not parse: %v\n%s", file, err, text)
		}
		again, err := FormatSpec(back)
		if err != nil {
			t.Fatalf("%s: FormatSpec of the parsed rendering: %v", file, err)
		}
		if again != text {
			t.Errorf("%s: rendering is not a fixed point\n--- first ---\n%s--- second ---\n%s", file, text, again)
		}
		if len(back.Flows) != len(spec.Flows) || back.K != spec.K || back.Mode != spec.Mode ||
			len(back.Props) != len(spec.Props) || len(back.Delivered) != len(spec.Delivered) ||
			len(back.Domains) != len(spec.Domains) || back.Net.NumLinks() != spec.Net.NumLinks() {
			t.Errorf("%s: parsed rendering lost content", file)
		}
	}
}
