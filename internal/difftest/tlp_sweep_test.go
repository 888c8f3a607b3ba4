// Acceptance sweep for the batch TLP engine: on every checked-in
// scenario, across failure budgets, a portfolio
// mirroring the spec's legacy properties must reach exactly the legacy
// verdicts; and a 1000-property portfolio must still cost one terminal
// scan per directed link (the scan-sharing contract, asserted via the
// tlp.* counters).
package difftest

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// mirrorSpecProps translates a parsed spec's legacy properties into
// TLProps (the testdata analog of mirrorPortfolio, which works on
// generated cases with an overload factor).
func mirrorSpecProps(n *yu.Network) []topo.TLProp {
	spec := n.Spec()
	props := make([]topo.TLProp, 0, len(spec.Props)+len(spec.Delivered))
	for _, b := range spec.Props {
		props = append(props, topo.TLProp{
			Kind: topo.TLPLinkLoad, Link: b.Link,
			Dir: b.Dir, DirSpecified: b.DirSpecified,
			Min: b.Min, Max: b.Max,
		})
	}
	for _, d := range spec.Delivered {
		props = append(props, topo.TLProp{
			Kind: topo.TLPDelivered, Prefix: d.Prefix, Min: d.Min, Max: d.Max,
		})
	}
	return props
}

func TestTLPSweepTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		n, err := yu.LoadString(string(data))
		if err != nil {
			t.Fatal(err)
		}
		props := mirrorSpecProps(n)
		if len(props) == 0 {
			continue
		}
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", filepath.Base(file), k), func(t *testing.T) {
				legacy, err := n.Verify(yu.VerifyOptions{K: k})
				if err != nil {
					t.Fatal(err)
				}
				violated := make(map[string]bool)
				for _, key := range canon.ViolationKeys(n.Topology(), legacy.Violations) {
					violated[key] = true
				}
				res, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: k})
				if err != nil {
					t.Fatal(err)
				}
				if res.Holds != legacy.Holds {
					t.Fatalf("Holds %v, legacy %v", res.Holds, legacy.Holds)
				}
				for i, vd := range res.Verdicts {
					want := legacyPropViolated(n, props[i], violated)
					if got := vd.Status == tlp.StatusViolated; got != want {
						t.Errorf("property %d (%s): violated=%v, legacy %v",
							i, canon.FormatProp(n.Topology(), props[i]), got, want)
					}
				}
			})
		}
	}
}

// legacyPropViolated reports whether the legacy violation-key set flags
// the mirrored property (any direction of an undirected link bound).
func legacyPropViolated(n *yu.Network, p topo.TLProp, violated map[string]bool) bool {
	net := n.Topology()
	switch p.Kind {
	case topo.TLPLinkLoad:
		dirs := []topo.Direction{topo.AtoB, topo.BtoA}
		if p.DirSpecified {
			dirs = []topo.Direction{p.Dir}
		}
		for _, d := range dirs {
			if violated["link-load "+net.DirLinkName(topo.MakeDirLinkID(p.Link, d))] {
				return true
			}
		}
		return false
	case topo.TLPDelivered:
		return violated["delivered "+p.Prefix.String()]
	}
	return false
}

// TestTLPThousandPropertiesOneScanPerLink pins the tentpole claim at
// scale: a 1000-property portfolio over the motivating network performs
// exactly one terminal scan per directed link and one per distinct
// prefix, however many properties ride on each subject.
func TestTLPThousandPropertiesOneScanPerLink(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "motivating.yu"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := yu.LoadString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	net := n.Topology()
	props := make([]topo.TLProp, 0, 1000)
	for i := 0; len(props) < 1000; i++ {
		link := topo.LinkID(i % net.NumLinks())
		switch i % 4 {
		case 0:
			props = append(props, topo.TLProp{
				Kind: topo.TLPLinkLoad, Link: link, Max: float64(40 + i%120),
			})
		case 1:
			props = append(props, topo.TLProp{
				Kind: topo.TLPUtil, Link: link, Factor: 0.5 + float64(i%50)/100,
			})
		case 2:
			props = append(props, topo.TLProp{
				Kind: topo.TLPDelivered, Prefix: n.Spec().Delivered[0].Prefix,
				Min: float64(i % 100), Max: math.Inf(1),
			})
		case 3:
			props = append(props, topo.TLProp{
				Kind: topo.TLPLinkLoad, Link: link, Max: float64(60 + i%80),
				CondSet: true, CondLink: topo.LinkID((i + 1) % net.NumLinks()),
			})
		}
	}
	reg := yu.NewMetrics()
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	wantLinks := int64(2 * net.NumLinks())
	if counters["tlp.link_scans"] != wantLinks {
		t.Errorf("tlp.link_scans = %d for 1000 properties, want %d (one per directed link)",
			counters["tlp.link_scans"], wantLinks)
	}
	if counters["tlp.delivered_scans"] != 1 {
		t.Errorf("tlp.delivered_scans = %d, want 1", counters["tlp.delivered_scans"])
	}
	if counters["tlp.properties"] != 1000 {
		t.Errorf("tlp.properties = %d, want 1000", counters["tlp.properties"])
	}
	// Each distinct guard link adds exactly one restrict scan per subject
	// link it guards — bounded by links × guards, far below one scan per
	// conditional property.
	if res.Stats.RestrictScans == 0 || res.Stats.RestrictScans > 2*net.NumLinks()*net.NumLinks() {
		t.Errorf("restrict scans = %d, want within (0, %d]",
			res.Stats.RestrictScans, 2*net.NumLinks()*net.NumLinks())
	}
	if len(res.Verdicts) != 1000 {
		t.Fatalf("%d verdicts for 1000 properties", len(res.Verdicts))
	}
}
