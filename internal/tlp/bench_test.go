package tlp_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

var sinkResult *tlp.Result

// BenchmarkPortfolioEval times Portfolio.Eval alone on the repository
// benchmark's portfolio-1k input (benchmark/workloads.go: 80-router WAN,
// 4000 flows, k=1, seed 13) under a 1000-property portfolio of the same
// make-up: the network-wide utilization bound, which has every directed
// link's load built and scanned, then load bounds, single-link utilization,
// delivered floors and conditional load bounds cycled over the links.
// Computed tables are dropped every iteration; the unique table keeps its
// nodes, so this is a lower bound.
func BenchmarkPortfolioEval(b *testing.B) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 80, Links: 160, Prefixes: 48, SRPolicyFraction: 0.1, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: 4000, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: 13*4 + 100})
	if err != nil {
		b.Fatal(err)
	}
	net := spec.Net
	prefixes := gen.Prefixes(spec)
	rng := rand.New(rand.NewSource(13 * 4))
	off := rng.Intn(net.NumLinks())
	props := []topo.TLProp{{Kind: topo.TLPUtil, AllLinks: true, Factor: 1.0}}
	for i := 0; len(props) < 1000; i++ {
		link := topo.LinkID((i + off) % net.NumLinks())
		p := topo.TLProp{Link: link, Dir: topo.Direction(rng.Intn(2))}
		switch i % 4 {
		case 0:
			p.Kind, p.Max = topo.TLPLinkLoad, float64(50+rng.Intn(200))
		case 1:
			p.Kind, p.Factor = topo.TLPUtil, 0.5+float64(rng.Intn(50))/100
		case 2:
			p = topo.TLProp{Kind: topo.TLPDelivered, Prefix: prefixes[(i+off)%len(prefixes)],
				Min: float64(rng.Intn(10)), Max: math.Inf(1)}
		case 3:
			p.Kind, p.Max = topo.TLPLinkLoad, float64(80+rng.Intn(150))
			p.CondSet, p.CondLink = true, topo.LinkID((i+off+1)%net.NumLinks())
		}
		props = append(props, p)
	}
	port, err := tlp.Compile(net, spec.Flows, props)
	if err != nil {
		b.Fatal(err)
	}
	m := mtbdd.New()
	rs, err := routesim.Run(routesim.NewFailVars(m, net, topo.FailLinks, 1), spec.Configs)
	if err != nil {
		b.Fatal(err)
	}
	v := core.NewVerifier(core.NewEngine(rs, core.Options{}), spec.Flows)
	if err := v.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		res, err := port.Eval(v, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}
