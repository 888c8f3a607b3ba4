package core_test

// The random network/flow generator that used to live here has been
// promoted to internal/difftest, which adds seeding, shrinking, and a
// full oracle battery on top of it. These tests keep the original
// differential contract — symbolic loads equal concrete loads on every
// in-budget scenario — running from the core package's test suite.

import (
	"testing"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/difftest"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// TestRandomDifferential cross-checks the symbolic pipeline against the
// concrete simulator on random link-failure cases: every directed link's
// symbolic traffic load, evaluated at every scenario within the failure
// budget, must equal the concrete load.
func TestRandomDifferential(t *testing.T) {
	const trials = 25
	for seed := int64(1); seed <= trials; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			c, err := difftest.New(seed, difftest.Options{LinkMode: true})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := difftest.OracleLoadsVsConcrete(c); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestRandomRouterFailureDifferential runs the same differential check on
// router-failure cases: the generator draws mode FailRouters for ~1 in 5
// seeds, so scan seeds until 10 router cases have run.
func TestRandomRouterFailureDifferential(t *testing.T) {
	const trials = 10
	ran := 0
	for seed := int64(1); ran < trials && seed < 500; seed++ {
		c, err := difftest.New(seed, difftest.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.Mode != topo.FailRouters {
			continue
		}
		ran++
		if err := difftest.OracleLoadsVsConcrete(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if ran < trials {
		t.Fatalf("only %d router-failure cases in the first 500 seeds", ran)
	}
}

// TestCheckMatchesReferenceBlueprints holds the check stage to its
// reference — the per-class fold and the class-by-class pruned loop it
// replaced — on 200 generated cases: weighted ECMP, SR splits, statics,
// sub-prefix delivered bounds, link and router failures, at the case's own
// overload factor and at one loose and one tight enough to reach every end
// of the pruned check.
func TestCheckMatchesReferenceBlueprints(t *testing.T) {
	const cases = 200
	for seed := int64(1); seed <= cases; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			c, err := difftest.New(seed, difftest.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			fv := routesim.NewFailVars(mtbdd.New(), c.Spec.Net, c.Mode, c.K)
			rs, err := routesim.Run(fv, c.Spec.Configs)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			v := core.NewVerifier(core.NewEngine(rs, core.Options{}), c.Spec.Flows)
			if err := core.CompareWithReference(v, c.Spec, []float64{c.OverloadFactor, 1.0, 0.1}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}
