package routesim_test

// The reference-oracle sweep over random difftest blueprints. It lives in
// the external test package because internal/difftest imports routesim.

import (
	"fmt"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/difftest"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// skewCosts rebuilds spec's topology with per-direction IGP metrics that
// differ (the blueprints draw symmetric ones), keeping every name and
// address so the configurations still resolve.
func skewCosts(spec *config.Spec) (*config.Spec, error) {
	b := topo.NewBuilder()
	for _, r := range spec.Net.Routers {
		opts := []topo.RouterOpt{topo.WithLoopback(r.Loopback)}
		if r.NoFail {
			opts = append(opts, topo.RouterNoFail())
		}
		b.AddRouter(r.Name, r.AS, opts...)
	}
	for i, l := range spec.Net.Links {
		opts := []topo.LinkOpt{
			topo.WithAsymCost(l.CostAB, l.CostBA+int64(1+i%3)),
			topo.WithCapacity(l.Capacity),
			topo.WithAddrs(l.AddrA, l.AddrB),
		}
		if l.NoFail {
			opts = append(opts, topo.LinkNoFail())
		}
		b.AddLink(spec.Net.Routers[l.A].Name, spec.Net.Routers[l.B].Name, opts...)
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	skewed := *spec
	skewed.Net = net
	return &skewed, nil
}

func TestReferenceBlueprints(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c, err := difftest.New(seed, difftest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec := c.Spec
		if seed%2 == 0 {
			if spec, err = skewCosts(spec); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{-1, 0, 1, 2} {
			for _, mode := range []topo.FailureMode{topo.FailLinks, topo.FailRouters, topo.FailBoth} {
				fv := routesim.NewFailVars(mtbdd.New(), spec.Net, mode, k)
				if err := routesim.CheckAgainstReference(fv, spec.Configs, nil); err != nil {
					t.Error(fmt.Errorf("seed %d k=%d %v: %w", seed, k, mode, err))
				}
			}
		}
	}
}
