package difftest

import (
	"errors"
	"fmt"
	"testing"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/topo"
)

// TestDiffBattery is the acceptance gate for the subsystem: ≥50 seeded
// random cases, each pushed through the full oracle battery, with zero
// disagreements. A failure names the seed and oracle; reproduce and
// shrink it with `go run ./cmd/yudiff -seed N`.
func TestDiffBattery(t *testing.T) {
	const cases = 50
	for seed := int64(1); seed <= cases; seed++ {
		seed := seed
		t.Run(caseName(seed), func(t *testing.T) {
			t.Parallel()
			c, err := New(seed, Options{})
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			if err := RunAll(c); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

func caseName(seed int64) string {
	return "seed-" + string('0'+byte(seed/10)) + string('0'+byte(seed%10))
}

// TestDiffGeneratorDeterministic: the same (seed, opts) must yield the
// byte-identical spec — the property that makes seeds reproducible across
// runs, fuzz corpora, and cmd/yudiff.
func TestDiffGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := MustNew(seed, Options{})
		b := MustNew(seed, Options{})
		ta, err := canon.FormatSpec(a.Spec)
		if err != nil {
			t.Fatalf("seed %d: format: %v", seed, err)
		}
		tb, err := canon.FormatSpec(b.Spec)
		if err != nil {
			t.Fatalf("seed %d: format: %v", seed, err)
		}
		if ta != tb {
			t.Fatalf("seed %d: two generations differ:\n--- a ---\n%s--- b ---\n%s", seed, ta, tb)
		}
		if a.K != b.K || a.Mode != b.Mode || a.OverloadFactor != b.OverloadFactor {
			t.Fatalf("seed %d: verification parameters differ", seed)
		}
	}
}

// TestDiffShrink drives the shrinker with a synthetic failure ("the case
// has at least one flow") and checks the result is 1-minimal: exactly one
// flow survives and every removable element — SR policies, statics, BGP
// tweaks, properties, chord links, prefixes — is gone.
func TestDiffShrink(t *testing.T) {
	hasFlows := func(c *Case) error {
		if len(c.Spec.Flows) > 0 {
			return errors.New("still has flows")
		}
		return nil
	}
	for seed := int64(1); seed <= 5; seed++ {
		c := MustNew(seed, Options{})
		small := Shrink(c, hasFlows)
		if err := hasFlows(small); err == nil {
			t.Fatalf("seed %d: shrunk case no longer fails the predicate", seed)
		}
		bp := small.bp
		if len(bp.flows) != 1 {
			t.Errorf("seed %d: want 1 flow after shrink, got %d", seed, len(bp.flows))
		}
		if len(bp.srPols)+len(bp.statics)+len(bp.lpTweaks)+len(bp.exDenies) != 0 {
			t.Errorf("seed %d: config knobs survived shrink: %d SR, %d static, %d local-pref, %d export-deny",
				seed, len(bp.srPols), len(bp.statics), len(bp.lpTweaks), len(bp.exDenies))
		}
		if len(bp.loadProps)+len(bp.delivered) != 0 {
			t.Errorf("seed %d: properties survived shrink", seed)
		}
		if len(bp.prefixes) != 0 {
			t.Errorf("seed %d: %d prefixes survived shrink", seed, len(bp.prefixes))
		}
		for _, l := range bp.links {
			if !l.ring {
				t.Errorf("seed %d: chord link %d-%d survived shrink", seed, l.a, l.b)
			}
		}
		if small.Seed != seed {
			t.Errorf("seed %d: shrunk case reports seed %d", seed, small.Seed)
		}
		// The minimized blueprint must still build and format: it is what
		// cmd/yudiff prints as the reproducer.
		if _, err := canon.FormatSpec(small.Spec); err != nil {
			t.Errorf("seed %d: shrunk spec does not format: %v", seed, err)
		}
	}
}

// TestDiffScenarioEnumeration pins the enumeration the exhaustive oracles
// quantify over: all distinct subsets of failable links up to size k,
// including the empty scenario, with nofail links excluded.
func TestDiffScenarioEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c := MustNew(seed, Options{LinkMode: true})
		net := c.Spec.Net
		failable := 0
		for i := range net.Links {
			if !net.Links[i].NoFail {
				failable++
			}
		}
		want := 0
		for sz := 0; sz <= c.K; sz++ {
			want += binomial(failable, sz)
		}
		seen := make(map[string]bool)
		err := forEachScenario(net, c.Mode, c.K, func(links []topo.LinkID, routers []topo.RouterID) error {
			if len(routers) != 0 {
				t.Fatalf("seed %d: router failure in link mode", seed)
			}
			if len(links) > c.K {
				t.Fatalf("seed %d: scenario %v exceeds budget %d", seed, links, c.K)
			}
			key := fmt.Sprint(links)
			if seen[key] {
				t.Fatalf("seed %d: scenario %v enumerated twice", seed, links)
			}
			seen[key] = true
			for _, l := range links {
				if net.Links[l].NoFail {
					t.Fatalf("seed %d: nofail link %v enumerated as failed", seed, l)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(seen) != want {
			t.Fatalf("seed %d: enumerated %d scenarios, want %d (failable=%d k=%d)",
				seed, len(seen), want, failable, c.K)
		}
	}
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}
