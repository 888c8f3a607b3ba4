// Package difftest is the repository's correctness-tooling subsystem: a
// seedable random network/workload generator with shrinking, a battery of
// differential and metamorphic oracles over the verification pipeline, and
// the plumbing shared by the Go-native fuzz targets and cmd/yudiff.
//
// The invariant the package exists to defend is the paper's core claim:
// one symbolic run over MTBDDs answers exactly what Jingubang-style
// enumeration of every ≤k-failure scenario answers. The oracles approach
// that claim from independent directions (exact per-scenario loads,
// violation-set equality, global-equivalence sharing, monotonicity in k,
// KREDUCE soundness, witness re-validation, and spec round-trip), so
// a bug has to fool several unrelated checks to slip through.
//
// A failing seed reproduces with:
//
//	go run ./cmd/yudiff -seed N -n 1
//
// which shrinks the case and prints a minimal spec in the config DSL.
package difftest

import (
	"fmt"
	"math/rand"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// Case is one generated differential-testing instance: a full network
// specification plus the verification parameters the oracles run it under.
// The blueprint the spec was built from is retained so the case can be
// shrunk structurally (see Shrink).
type Case struct {
	// Seed reproduces the case via New(seed, opts).
	Seed int64
	// Spec is the generated network, configurations, flows, and bounds.
	Spec *config.Spec
	// K is the failure budget the oracles verify under.
	K int
	// Mode is the failure mode (links or routers).
	Mode topo.FailureMode
	// OverloadFactor is the all-links overload property checked by the
	// verification oracles (limit = factor × capacity).
	OverloadFactor float64

	bp *blueprint
}

// Options bounds the generator. The zero value selects the defaults used
// by the test battery: small, messy, fast-to-enumerate networks.
type Options struct {
	// MinRouters and MaxRouters bound the router count (defaults 5, 9).
	MinRouters, MaxRouters int
	// MaxASes bounds the number of autonomous systems (default 3).
	MaxASes int
	// MaxFlows bounds the workload size (default 5).
	MaxFlows int
	// MaxK bounds the failure budget (default 2; router mode always
	// verifies with k=1 to keep enumeration cheap).
	MaxK int
	// LinkMode forces FailLinks when true (router-failure cases are
	// otherwise generated with probability ~1/5).
	LinkMode bool
}

func (o Options) withDefaults() Options {
	if o.MinRouters <= 0 {
		o.MinRouters = 5
	}
	if o.MaxRouters < o.MinRouters {
		o.MaxRouters = o.MinRouters + 4
	}
	if o.MaxASes <= 0 {
		o.MaxASes = 3
	}
	if o.MaxFlows <= 0 {
		o.MaxFlows = 5
	}
	if o.MaxK <= 0 {
		o.MaxK = 2
	}
	return o
}

// New generates the deterministic case for a seed. Identical
// (seed, opts) always yield the identical case, on every platform — the
// whole harness depends on it.
func New(seed int64, opts Options) (*Case, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	bp := genBlueprint(rng, opts)
	c, err := bp.build()
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: %w", seed, err)
	}
	c.Seed = seed
	return c, nil
}

// MustNew is New panicking on generation errors, for fuzz harnesses whose
// blueprints are valid by construction.
func MustNew(seed int64, opts Options) *Case {
	c, err := New(seed, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// forEachScenario enumerates every failure scenario of the case's mode
// with at most k failed elements (including the no-failure scenario),
// invoking fn with the failed links and routers. Elements marked NoFail
// are skipped, matching the enumerating baseline.
func forEachScenario(net *topo.Network, mode topo.FailureMode, k int, fn func(links []topo.LinkID, routers []topo.RouterID) error) error {
	type elem struct {
		link   topo.LinkID
		router topo.RouterID
		isLink bool
	}
	var elems []elem
	if mode == topo.FailLinks || mode == topo.FailBoth {
		for i := range net.Links {
			if !net.Links[i].NoFail {
				elems = append(elems, elem{link: topo.LinkID(i), isLink: true})
			}
		}
	}
	if mode == topo.FailRouters || mode == topo.FailBoth {
		for i := range net.Routers {
			if !net.Routers[i].NoFail {
				elems = append(elems, elem{router: topo.RouterID(i)})
			}
		}
	}
	var links []topo.LinkID
	var routers []topo.RouterID
	var visit func(start, budget int) error
	visit = func(start, budget int) error {
		if err := fn(links, routers); err != nil {
			return err
		}
		if budget == 0 {
			return nil
		}
		for i := start; i < len(elems); i++ {
			e := elems[i]
			if e.isLink {
				links = append(links, e.link)
			} else {
				routers = append(routers, e.router)
			}
			err := visit(i+1, budget-1)
			if e.isLink {
				links = links[:len(links)-1]
			} else {
				routers = routers[:len(routers)-1]
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return visit(0, k)
}
