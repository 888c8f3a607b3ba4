package difftest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
)

// TestModularByteIdentitySweep pins compositional verification's central
// guarantee on every checked-in example network: for each testdata spec
// and failure budget, the canonical report rendering is identical between
// the monolithic pipeline and domain decomposition. Single-AS specs
// degenerate to a one-domain partition (everything crosses the summary
// layer machinery but nothing is actually cut) — byte identity must hold
// there too.
func TestModularByteIdentitySweep(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".yu") {
			continue
		}
		path := filepath.Join(root, ent.Name())
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", ent.Name(), k), func(t *testing.T) {
				n, err := yu.LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				opts := yu.VerifyOptions{K: k, OverloadFactor: 1.0}
				mono, err := n.Verify(opts)
				if err != nil {
					t.Fatal(err)
				}
				want := FormatReport(n.Topology(), mono)
				for _, domains := range []int{2, 4} {
					opts.AutoDomains = domains
					rep, err := n.Verify(opts)
					if err != nil {
						t.Fatalf("auto-domains=%d: %v", domains, err)
					}
					if got := FormatReport(n.Topology(), rep); got != want {
						t.Errorf("auto-domains=%d report differs from monolithic\n--- monolithic ---\n%s--- modular ---\n%s",
							domains, want, got)
					}
				}
			})
		}
	}
}

// wan1WallBudget is a live-node budget that separates the two plans on
// wan-1 at k=2: the monolithic run cannot get below ~8 800 live nodes even
// with GC relief, while the largest domain manager peaks at ~4 300. (It
// was 16 000 while route simulation re-derived its guards round by round
// and the monolithic peak stood at 35 K; the peak is 14.7 K now.)
const wan1WallBudget = 7000

// TestModularBreaksNodeBudgetWall is the wan-1 acceptance check as a
// test: under the separating node budget the monolithic pipeline must
// fail with ErrNodeBudget while the spec-partitioned modular pipeline
// verifies — with every class contained, since the blueprint's traffic
// never crosses a domain border.
func TestModularBreaksNodeBudgetWall(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "wan-1.yu")
	n, err := yu.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Spec().Domains) == 0 {
		t.Fatal("wan-1.yu lost its domain lines")
	}
	const budget = wan1WallBudget
	opts := yu.VerifyOptions{K: 2, OverloadFactor: 1.0, MaxNodes: budget}
	if _, err := n.Verify(opts); !errors.Is(err, yu.ErrNodeBudget) {
		t.Fatalf("monolithic under budget %d: err = %v, want ErrNodeBudget", budget, err)
	}
	opts.Domains = n.Spec().Domains
	rep, err := n.Verify(opts)
	if err != nil {
		t.Fatalf("modular under budget %d: %v", budget, err)
	}
	if !rep.Holds {
		t.Fatalf("wan-1 must verify clean, got %d violations", len(rep.Violations))
	}
	m := rep.Modular
	if m == nil {
		t.Fatal("modular run reported no modular stats")
	}
	if m.FallbackClasses != 0 {
		t.Fatalf("%d classes fell back on the contained workload", m.FallbackClasses)
	}
	if m.DomainPeakNodes >= budget {
		t.Fatalf("domain peak %d not under the budget %d", m.DomainPeakNodes, budget)
	}
}

// TestPortfolioHonoursDomains pins that VerifyPortfolio goes through the
// same build stage as Verify: under the budget that kills the monolithic
// plan on wan-1, the spec-partitioned portfolio run must verify — and
// render byte-identically to the unbudgeted monolithic evaluation — and an
// invalid partition must be the same hard error Verify reports.
func TestPortfolioHonoursDomains(t *testing.T) {
	n, err := yu.LoadFile(filepath.Join("..", "..", "testdata", "wan-1.yu"))
	if err != nil {
		t.Fatal(err)
	}
	props := goldenPortfolio(n)
	mono, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := canon.FormatPortfolio(n.Topology(), mono)
	opts := yu.VerifyOptions{K: 2, MaxNodes: wan1WallBudget}
	if _, err := n.VerifyPortfolio(props, opts); !errors.Is(err, yu.ErrNodeBudget) {
		t.Fatalf("monolithic portfolio under the budget: err = %v, want ErrNodeBudget", err)
	}
	opts.Domains = n.Spec().Domains
	res, err := n.VerifyPortfolio(props, opts)
	if err != nil {
		t.Fatalf("modular portfolio under the budget: %v", err)
	}
	if got := canon.FormatPortfolio(n.Topology(), res); got != want {
		t.Errorf("modular portfolio differs from monolithic\n--- monolithic ---\n%s--- modular ---\n%s", want, got)
	}
	opts.Domains = map[string][]string{"half": {"d0r0"}}
	if _, err := n.VerifyPortfolio(props, opts); err == nil || errors.Is(err, yu.ErrNodeBudget) {
		t.Fatalf("invalid partition: err = %v, want a partition error", err)
	}
}
