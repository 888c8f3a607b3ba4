package core

import "github.com/yu-verify/yu/internal/config"

// CompareWithReference exposes the check stage's reference oracle
// (reference_test.go) to the external test package, which may import
// internal/difftest for its generated cases: every load, pruned stop,
// witness and value of v against the pre-kernel fold and loop, on the
// primary manager and on a check shard.
func CompareWithReference(v *Verifier, spec *config.Spec, factors []float64) error {
	return compareVerifier(v, spec, factors, 1, 1)
}
