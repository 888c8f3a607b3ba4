package difftest

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/topo"
)

// updateGolden rewrites testdata/golden from the monolithic run instead of comparing against it. The checked-in files were generated
// at the commit before the staged-pipeline refactor; regenerate them only
// for a change that is meant to move verdicts.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/* from the monolithic run")

// goldenPortfolio is the portfolio pinned per spec: the spec's own `tlp`
// lines, its legacy properties mirrored as TLProps, the all-links
// utilization bound matching the report goldens' overload factor, and one
// conditional bound so the guard-restricted scan is pinned too.
func goldenPortfolio(n *yu.Network) []topo.TLProp {
	props := append([]topo.TLProp(nil), n.Spec().Portfolio...)
	props = append(props, mirrorSpecProps(n)...)
	return append(props,
		topo.TLProp{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.95},
		topo.TLProp{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.8, CondSet: true, CondLink: 0})
}

// TestGoldenSweep holds every pipeline path to checked-in renderings:
// monolithic, AutoDomains 2 and the spec's own `domain` lines must each
// reproduce testdata/golden/<spec>.k<K>.report
// (canon.FormatReport, overload 0.95) and .portfolio (canon.FormatPortfolio
// of goldenPortfolio) byte for byte — through Verify and VerifyPortfolio, and
// again as a series of checks on one Build of the same options, before and
// after the build is trimmed and its manager collected. The other sweeps
// compare paths with each other at one commit; this one also catches a
// change that shifts all of them equally.
func TestGoldenSweep(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	files, err := filepath.Glob(filepath.Join(root, "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, file := range files {
		n, err := yu.LoadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".yu")
		props := goldenPortfolio(n)
		type plan struct {
			label string
			set   func(*yu.VerifyOptions)
		}
		plans := []plan{
			{"monolithic", func(*yu.VerifyOptions) {}},
			{"auto-domains=2", func(o *yu.VerifyOptions) { o.AutoDomains = 2 }},
		}
		if len(n.Spec().Domains) > 0 {
			plans = append(plans, plan{"spec-domains", func(o *yu.VerifyOptions) { o.Domains = n.Spec().Domains }})
		}
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				base := filepath.Join(root, "golden", fmt.Sprintf("%s.k%d", name, k))
				for _, p := range plans {
					opts := yu.VerifyOptions{K: k, OverloadFactor: 0.95}
					p.set(&opts)
					where := p.label
					rep, err := n.Verify(opts)
					if err != nil {
						t.Fatalf("%s: Verify: %v", where, err)
					}
					matchGolden(t, base+".report", where, canon.FormatReport(n.Topology(), rep))
					res, err := n.VerifyPortfolio(props, opts)
					if err != nil {
						t.Fatalf("%s: VerifyPortfolio: %v", where, err)
					}
					matchGolden(t, base+".portfolio", where, canon.FormatPortfolio(n.Topology(), res))

					// Build once, check many: the same bytes from every check
					// on one build, in any order, lean or not.
					b, err := n.Build(opts)
					if err != nil {
						t.Fatalf("%s: Build: %v", where, err)
					}
					for round, prepare := range []func(){func() {}, b.Trim, b.Collect} {
						prepare()
						where := fmt.Sprintf("%s, built, round %d", where, round)
						res, err := b.VerifyPortfolio(context.Background(), props)
						if err != nil {
							t.Fatalf("%s: VerifyPortfolio: %v", where, err)
						}
						matchGolden(t, base+".portfolio", where, canon.FormatPortfolio(n.Topology(), res))
						rep, err := b.Verify(context.Background())
						if err != nil {
							t.Fatalf("%s: Verify: %v", where, err)
						}
						matchGolden(t, base+".report", where, canon.FormatReport(n.Topology(), rep))
					}
				}
			})
		}
	}
}

// goldenWritten records the files this -update-golden run has rewritten, so
// only the first path to reach a file (monolithic) writes it and
// the rest are compared against what it wrote.
var goldenWritten = map[string]bool{}

// matchGolden compares got with the golden file, or (under -update-golden)
// writes it from the first path that reaches it.
func matchGolden(t *testing.T, path, where, got string) {
	t.Helper()
	if *updateGolden && !goldenWritten[path] {
		goldenWritten[path] = true
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s\n--- golden ---\n%s--- got ---\n%s", where, path, want, got)
	}
}
