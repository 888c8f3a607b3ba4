package mtbdd_test

import (
	"testing"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Microbenchmarks of per-link load aggregation on a real operand list: the
// link-local equivalence classes of the busiest directed link of two of the
// repository benchmark's WANs (benchmark/workloads.go, seed 13), built by
// route simulation and symbolic execution. The binary MulAddK chain is the
// fold the n-ary kernels replaced, kept as the reference side of the pair.
// An external test package, because the operands come from packages that
// import mtbdd.

type linkOperands struct {
	name string
	m    *mtbdd.Manager
	k    int
	vols []float64
	fs   []*mtbdd.Node
}

// busiestLinkOperands executes the workload and returns the class list of
// the directed link the most classes cross, in first-seen order.
func busiestLinkOperands(b *testing.B, name string, ws gen.WANSpec, flows int, flowSeed int64, k int) linkOperands {
	b.Helper()
	spec, err := gen.WAN(ws)
	if err != nil {
		b.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: flowSeed})
	if err != nil {
		b.Fatal(err)
	}
	m := mtbdd.New()
	rs, err := routesim.Run(routesim.NewFailVars(m, spec.Net, topo.FailLinks, k), spec.Configs)
	if err != nil {
		b.Fatal(err)
	}
	v := core.NewVerifier(core.NewEngine(rs, core.Options{}), spec.Flows)
	if err := v.Err(); err != nil {
		b.Fatal(err)
	}
	best := linkOperands{name: name, m: m, k: k}
	for d := 0; d < 2*spec.Net.NumLinks(); d++ {
		var vols []float64
		var fs []*mtbdd.Node
		idx := make(map[*mtbdd.Node]int)
		for _, s := range v.FlowSTFs() {
			var w *mtbdd.Node
			for _, lf := range s.Links {
				if lf.Link == topo.DirLinkID(d) {
					w = lf.W
				}
			}
			if w == nil {
				continue
			}
			if i, ok := idx[w]; ok {
				vols[i] += s.Flow.Gbps
				continue
			}
			idx[w] = len(fs)
			vols, fs = append(vols, s.Flow.Gbps), append(fs, w)
		}
		if len(fs) > len(best.fs) {
			best.vols, best.fs = vols, fs
		}
	}
	return best
}

func benchLinks(b *testing.B) []linkOperands {
	return []linkOperands{
		busiestLinkOperands(b, "portfolio-1k", gen.WANSpec{Routers: 80, Links: 160, Prefixes: 48, SRPolicyFraction: 0.1, Seed: 10}, 4000, 13*4+100, 1),
		busiestLinkOperands(b, "wan-k2", gen.WANSpec{Routers: 50, Links: 100, Prefixes: 32, SRPolicyFraction: 0.1, Seed: 3}, 2500, 13*4+100, 2),
	}
}

var (
	sinkNode *mtbdd.Node
	sinkMax  []float64
)

// BenchmarkMulAddKChain is the reference: one fused multiply-accumulate per
// class, each re-walking the running sum. Caches are dropped every
// iteration (the unique table keeps the nodes, so this is a lower bound).
func BenchmarkMulAddKChain(b *testing.B) {
	for _, in := range benchLinks(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.m.ClearCaches()
				acc := in.m.Zero()
				for j, f := range in.fs {
					acc = in.m.MulAddK(acc, in.m.Const(in.vols[j]), f, in.k)
				}
				sinkNode = acc
			}
		})
	}
}

// BenchmarkSumMulK builds the same node in one n-ary walk.
func BenchmarkSumMulK(b *testing.B) {
	for _, in := range benchLinks(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.m.ClearCaches()
				sinkNode = in.m.SumMulK(in.vols, in.fs, in.k)
			}
		})
	}
}

// BenchmarkPrefixMaxK is the walk without the nodes: every prefix's
// in-budget maximum.
func BenchmarkPrefixMaxK(b *testing.B) {
	for _, in := range benchLinks(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkMax = in.m.PrefixMaxK(in.vols, in.fs, in.k)
			}
		})
	}
}
