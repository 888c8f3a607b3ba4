package core

import (
	"fmt"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// SetExecHook installs (nil: removes) the hook that runs inside every
// governed flow execution.
func SetExecHook(h func(topo.Flow)) { testExecHook = h }

// CompareWithReference exposes the check stage's reference oracle
// (reference_test.go) to the external test package, which may import
// internal/difftest for its generated cases: every load, pruned stop,
// witness and value of v against the pre-kernel fold and loop.
func CompareWithReference(v *Verifier, spec *config.Spec, factors []float64) error {
	return compareVerifier(v, spec, factors, 1)
}

// CompareExecution exposes the execution stage's reference oracle
// (reference_test.go): every finished STF of v against the kept map-based
// execution of its class, in v's manager, node for node.
func CompareExecution(v *Verifier) error { return compareExecution(v) }

// SameSTFs holds other's finished STFs, sealed and unsealed into v's manager,
// to v's own, node for node: two verifiers of one input built on different
// paths (monolithic and compositional) must hold the same functions.
func SameSTFs(v, other *Verifier) error {
	if err := other.Err(); err != nil {
		return err
	}
	if len(v.stfs) != len(other.stfs) {
		return fmt.Errorf("%d STFs against %d", len(v.stfs), len(other.stfs))
	}
	flows := make([]topo.Flow, len(other.stfs))
	for i, s := range other.stfs {
		flows[i] = s.Flow
	}
	for i, s := range SealSTFs(other.stfs).Unseal(v.e.m, flows) {
		if err := sameSTF(s, v.stfs[i]); err != nil {
			return fmt.Errorf("class %d (%v): %w", i, s.Flow, err)
		}
	}
	return nil
}

// SharedClasses counts v's classes that took an earlier class's STF.
func SharedClasses(v *Verifier) int { return sharedClasses(v) }
