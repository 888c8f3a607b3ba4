package core_test

// The random network/flow generator that used to live here has been
// promoted to internal/difftest, which adds seeding, shrinking, and a
// full oracle battery on top of it. These tests keep the original
// differential contract — symbolic loads equal concrete loads on every
// in-budget scenario — running from the core package's test suite.

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/config"
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
			v := monolithic(t, c.Spec, c.Mode, c.K)
			if err := core.CompareWithReference(v, c.Spec, []float64{c.OverloadFactor, 1.0, 0.1}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// monolithic route-simulates a spec on a fresh manager and executes its
// flows.
func monolithic(t *testing.T, spec *config.Spec, mode topo.FailureMode, k int) *core.Verifier {
	t.Helper()
	fv := routesim.NewFailVars(mtbdd.New(), spec.Net, mode, k)
	rs, err := routesim.Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewVerifier(core.NewEngine(rs, core.Options{}), spec.Flows)
}

// executionOnEveryPath holds symbolic execution to its reference — the
// map-based wavefront that executed every class — on the monolithic engine
// and inside the domain engines of a compositional build over part (nil:
// none), whose assembled STFs must be the monolithic ones. It returns how
// many classes the monolithic run shared and whether the compositional build
// took place.
func executionOnEveryPath(t *testing.T, spec *config.Spec, mode topo.FailureMode, k int, part *topo.Partition) (shared int, composed bool) {
	t.Helper()
	seq := monolithic(t, spec, mode, k)
	if err := core.CompareExecution(seq); err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	if part != nil {
		// An input Build turns down (a static resolving across a border) is
		// verified monolithically by every caller: nothing to compare.
		if b, err := compose.Build(spec.Net, spec.Configs, part, spec.Flows, compose.Options{K: k, Mode: mode}); err == nil {
			composed = true
			if err := core.SameSTFs(seq, b.Verifier); err != nil {
				t.Fatalf("domains: %v", err)
			}
		}
	}
	return core.SharedClasses(seq), composed
}

// TestExecutionMatchesReferenceBlueprints: 200 generated cases — SR policies
// with and without a DSCP, weighted paths, statics, redistribution, link and
// router failures — with enough flows per case that classes repeat a
// behaviour, each split into two domains where its ASes allow.
func TestExecutionMatchesReferenceBlueprints(t *testing.T) {
	const cases = 200
	shared, composed := make([]int, cases+1), make([]bool, cases+1)
	t.Run("cases", func(t *testing.T) {
		for seed := int64(1); seed <= cases; seed++ {
			seed := seed
			t.Run("", func(t *testing.T) {
				t.Parallel()
				c, err := difftest.New(seed, difftest.Options{MaxFlows: 24})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				var part *topo.Partition
				if len(c.Spec.Net.ASes()) > 1 {
					if part, err = topo.AutoPartition(c.Spec.Net, 2); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				shared[seed], composed[seed] = executionOnEveryPath(t, c.Spec, c.Mode, c.K, part)
			})
		}
	})
	total, builds := 0, 0
	for seed, n := range shared {
		total += n
		if composed[seed] {
			builds++
		}
	}
	if total == 0 || builds < cases/4 {
		t.Errorf("%d classes shared an STF and %d cases were built compositionally: the oracle saw too little", total, builds)
	}
	t.Logf("%d classes shared an STF; %d of %d cases also ran in two domains", total, builds, cases)
}

// TestExecutionMatchesReferenceDomains: the checked-in spec that declares its
// own domains, at every budget from 0 to 3.
func TestExecutionMatchesReferenceDomains(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wan-1.yu"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := config.ParseSpecString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.NewPartition(spec.Net, spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 3; k++ {
		if _, composed := executionOnEveryPath(t, spec, topo.FailLinks, k, part); !composed {
			t.Errorf("k=%d: no compositional build", k)
		}
	}
}
