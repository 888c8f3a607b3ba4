package yu_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/topo"
)

// TestWorkersIsANoOp: VerifyOptions.Workers is accepted and ignored. On every
// testdata spec and failure budget, Workers 4 renders the canonical report
// and portfolio result of Workers 1 byte for byte — monolithic and on two
// auto-domains alike — and the run reports one worker.
func TestWorkersIsANoOp(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, file := range files {
		n, err := yu.LoadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		props := append([]topo.TLProp{{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.95}}, n.Spec().Portfolio...)
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", filepath.Base(file), k), func(t *testing.T) {
				for _, domains := range []int{0, 2} {
					render := func(workers int) string {
						t.Helper()
						opts := yu.VerifyOptions{K: k, OverloadFactor: 0.95, Workers: workers, AutoDomains: domains}
						rep, err := n.Verify(opts)
						if err != nil {
							t.Fatalf("workers=%d auto-domains=%d: %v", workers, domains, err)
						}
						if rep.Sched.Workers != 1 {
							t.Errorf("workers=%d auto-domains=%d: the run reports %d workers", workers, domains, rep.Sched.Workers)
						}
						res, err := n.VerifyPortfolio(props, opts)
						if err != nil {
							t.Fatalf("workers=%d auto-domains=%d: portfolio: %v", workers, domains, err)
						}
						return canon.FormatReport(n.Topology(), rep) + canon.FormatPortfolio(n.Topology(), res)
					}
					if one, four := render(1), render(4); one != four {
						t.Errorf("auto-domains=%d: workers=4 renders\n%s--- workers=1 ---\n%s", domains, four, one)
					}
				}
			})
		}
	}
}

// countingCache is an STFCache that keeps every stored STF sealed, so a later
// run's manager can unseal it, and counts what the verifier asked of it.
type countingCache struct {
	stfs                  map[topo.Flow]*core.SealedSTFs
	lookups, hits, stores int
}

func (c *countingCache) Lookup(e *yu.ExecEngine, rep topo.Flow) (*yu.FlowSTF, bool) {
	c.lookups++
	l, ok := c.stfs[rep]
	if !ok {
		return nil, false
	}
	c.hits++
	return l.Unseal(e.Manager(), []topo.Flow{rep})[0], true
}

func (c *countingCache) Store(_ *yu.ExecEngine, rep topo.Flow, s *yu.FlowSTF) {
	c.stores++
	c.stfs[rep] = core.SealSTFs([]*yu.FlowSTF{s})
}

// TestSTFCacheServesAnyWorkerCount: the STF cache serves every run, whatever
// Workers says — one Lookup per class, a Store per class executed, and a
// second run of the same input served from the cache alone, to the same
// canonical report.
func TestSTFCacheServesAnyWorkerCount(t *testing.T) {
	n, err := yu.LoadFile(filepath.Join("testdata", "wan-1.yu"))
	if err != nil {
		t.Fatal(err)
	}
	cache := &countingCache{stfs: make(map[topo.Flow]*core.SealedSTFs)}
	opts := yu.VerifyOptions{K: 1, OverloadFactor: 0.95, Workers: 4, STFCache: cache}
	cold, err := n.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	classes := cold.FlowsExecuted
	if classes == 0 || cache.lookups != classes || cache.hits != 0 || cache.stores != classes {
		t.Fatalf("cold run of %d classes: %d lookups, %d hits, %d stores", classes, cache.lookups, cache.hits, cache.stores)
	}
	warm, err := n.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.lookups != 2*classes || cache.hits != classes || cache.stores != classes {
		t.Fatalf("warm run of %d classes: %d lookups, %d hits, %d stores in all", classes, cache.lookups, cache.hits, cache.stores)
	}
	if got, want := canon.FormatReport(n.Topology(), warm), canon.FormatReport(n.Topology(), cold); got != want {
		t.Errorf("the cache-served run renders\n%s--- cold ---\n%s", got, want)
	}
	if cold.Incomplete {
		t.Error("the cold run is incomplete")
	}
}
