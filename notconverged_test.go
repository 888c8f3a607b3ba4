package yu

import (
	"errors"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/topo"
)

// TestVerifyNotConverged: a BGP fixed point that never stabilises (the
// DISAGREE gadget) yields a typed error and no report on every pipeline —
// monolithic, sharded, compositional (no monolithic retry) and portfolio
// — where it used to yield a verdict read off the last round (a 20 Gbps
// flow "carrying 160 Gbps").
func TestVerifyNotConverged(t *testing.T) {
	n, err := LoadFile("testdata/notconverged/disagree.yu")
	if err != nil {
		t.Fatal(err)
	}
	domains := map[string][]string{"o": {"O"}, "a": {"A"}, "b": {"B"}}
	expect := func(t *testing.T, err error) {
		t.Helper()
		var nc *ErrNotConverged
		if !errors.As(err, &nc) {
			t.Fatalf("error = %v, want *ErrNotConverged", err)
		}
		if nc.Rounds != n.Topology().RoundBound() {
			t.Errorf("gave up after %d rounds, want the budget %d", nc.Rounds, n.Topology().RoundBound())
		}
		if got := strings.Join(nc.Changing, "; "); !strings.Contains(got, "A 100.9.0.0/24") || !strings.Contains(got, "B 100.9.0.0/24") {
			t.Errorf("still-changing entries = %q, want A's and B's entry for the prefix", got)
		}
	}
	for name, opts := range map[string]VerifyOptions{
		"monolithic": {OverloadFactor: 0.5},
		"workers":    {OverloadFactor: 0.5, Workers: 2},
		"domains":    {OverloadFactor: 0.5, Domains: domains},
		"no-kreduce": {OverloadFactor: 0.5, DisableKReduce: true},
	} {
		t.Run(name, func(t *testing.T) {
			rep, err := n.Verify(opts)
			if rep != nil {
				t.Errorf("got a report (holds=%v, %d violations) from a routing state that does not exist", rep.Holds, len(rep.Violations))
			}
			expect(t, err)
		})
		t.Run(name+"/portfolio", func(t *testing.T) {
			res, err := n.VerifyPortfolio([]TLProp{{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.5}}, opts)
			if res != nil {
				t.Errorf("got a portfolio result (holds=%v)", res.Holds)
			}
			expect(t, err)
		})
	}

	// Control: the same network converges once A stops preferring B.
	for i := range n.Spec().Configs["A"].Neighbors {
		n.Spec().Configs["A"].Neighbors[i].LocalPref = 0
	}
	for name, opts := range map[string]VerifyOptions{"monolithic": {}, "domains": {Domains: domains}} {
		if _, err := n.Verify(opts); err != nil {
			t.Errorf("%s, dispute removed: %v", name, err)
		}
	}
}
