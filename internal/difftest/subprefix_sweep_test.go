package difftest

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// TestSubPrefixDelivered is the regression for delivered and ratio bounds
// on a prefix that splits a global-equivalence class (testdata/subprefix:
// a class merges flows by matched-prefix set, so half of a routed prefix,
// or one flow's /32, covers only some of its members). On every path —
// the spec's properties and the portfolio engine, monolithic and two
// auto-domains — the verdicts must be those of concrete enumeration, which
// knows no classes.
func TestSubPrefixDelivered(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "subprefix", "*.yu"))
	if err != nil || len(files) < 3 {
		t.Fatalf("want the three sub-prefix specs, found %d (%v)", len(files), err)
	}
	paths := []yu.VerifyOptions{{}, {AutoDomains: 2}}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			n, err := yu.LoadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			net := n.Topology()
			enum, err := n.Verify(yu.VerifyOptions{Engine: yu.EngineEnumerate})
			if err != nil {
				t.Fatal(err)
			}
			want := canon.ViolationKeys(net, enum.Violations)
			violated := make(map[string]bool)
			for _, key := range want {
				violated[key] = true
			}
			// The spec's own tlp lines (delivered and ratio on the same
			// sub-prefixes) ride along with the mirrored properties. Every
			// ratio in the gadgets is truly 1: nothing offered is ever lost.
			props := append(mirrorSpecProps(n), n.Spec().Portfolio...)
			for _, opts := range paths {
				name := fmt.Sprintf("auto-domains=%d", opts.AutoDomains)
				rep, err := n.Verify(opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := canon.ViolationKeys(net, rep.Violations); strings.Join(got, ";") != strings.Join(want, ";") || rep.Holds != enum.Holds {
					t.Errorf("%s: violations %v (holds %v), enumeration finds %v (holds %v)", name, got, rep.Holds, want, enum.Holds)
				}
				res, err := n.VerifyPortfolio(props, opts)
				if err != nil {
					t.Fatalf("%s: portfolio: %v", name, err)
				}
				for i, vd := range res.Verdicts {
					wantViolated := props[i].Kind == topo.TLPDelivered && violated["delivered "+props[i].Prefix.String()]
					if got := vd.Status == tlp.StatusViolated; got != wantViolated || (!got && vd.Status != tlp.StatusHolds) {
						t.Errorf("%s: %s is %v (value %g), want violated=%v",
							name, canon.FormatProp(net, props[i]), vd.Status, vd.Value, wantViolated)
					}
				}
			}
		})
	}
}
