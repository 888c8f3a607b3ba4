package yu_test

import (
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
)

// TestXCheckWANEngines cross-validates YU against the enumerating
// baseline on a WAN-style network with SR policies and iBGP: both engines
// must flag exactly the same set of overloadable directed links, and YU
// must be deterministic across runs. The per-case version of this check
// runs as difftest's violation-sets oracle over many random networks;
// this test keeps one large fixed instance in the suite.
func TestXCheckWANEngines(t *testing.T) {
	wan, err := gen.WAN(gen.WANSpec{Routers: 60, Links: 120, Prefixes: 30, SRPolicyFraction: 0.1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(wan, flowgen.RandomSpec{Count: 800, DSCP5Fraction: 0.3, MeanGbps: 14, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	n := yu.FromSpec(wan)
	keysOf := func(rep *yu.Report) []string {
		return canon.ViolationKeys(n.Topology(), rep.Violations)
	}
	yuRep, err := n.Verify(yu.VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	yuRep2, err := n.Verify(yu.VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	a, b := keysOf(yuRep), keysOf(yuRep2)
	if canon.FormatReport(n.Topology(), yuRep) != canon.FormatReport(n.Topology(), yuRep2) {
		t.Fatalf("nondeterministic reports: %v vs %v", a, b)
	}
	enumRep, err := n.Verify(yu.VerifyOptions{K: 1, OverloadFactor: 1.0, Flows: flows, Engine: yu.EngineEnumerate, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	c := keysOf(enumRep)
	if len(a) != len(c) {
		t.Fatalf("YU flags %d properties %v\nenum flags %d properties %v", len(a), a, len(c), c)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("flagged properties differ: %v vs %v", a, c)
		}
	}
	if len(a) == 0 {
		t.Fatal("instance too easy: no violations to compare")
	}
	t.Logf("both engines flag %d properties", len(a))
}
