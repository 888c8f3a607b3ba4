package serve

import (
	"testing"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
)

// StoreLen is the warm store's entry count, for the external tests that
// hold it to CacheLimit.
func (s *Server) StoreLen() int { return s.store.len() }

// WANText renders a generated WAN with random flows (k = 1) as canonical
// spec text — the generated input of the white-box and the external tests.
func WANText(t testing.TB, routers, links, prefixes, flows int, seed int64) (*config.Spec, string) {
	t.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: routers, Links: links, Prefixes: prefixes, SRPolicyFraction: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: seed + 100})
	if err != nil {
		t.Fatal(err)
	}
	spec.K = 1
	text, err := canon.FormatSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, text
}
