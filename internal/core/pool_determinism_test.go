package core_test

import (
	"hash/fnv"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/topo"
)

// TestPoolDeterminism runs the whole pipeline on the shard pool with
// adversarial per-class delays injected before each sharded execution —
// perturbing which worker takes which chunk, and with it what every shard's
// manager holds when the checks start — and requires the canonical report and
// the canonical portfolio result byte-identical to the one-worker run's:
// scheduling must be invisible in the output of both check surfaces.
func TestPoolDeterminism(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 8, SRPolicyFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: 200, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 2, Seed: 105})
	if err != nil {
		t.Fatal(err)
	}
	n := yu.FromSpec(spec)
	props := []topo.TLProp{
		{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.1},
		{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.08, CondSet: true, CondLink: 0},
		{Kind: topo.TLPSumLoad, AggLinks: []topo.LinkID{0, 1, 2}, Max: 10},
		{Kind: topo.TLPDelivered, Prefix: gen.Prefixes(spec)[0], Min: 1, Max: 1e9},
	}
	render := func(workers int) (string, string) {
		t.Helper()
		opts := yu.VerifyOptions{OverloadFactor: 0.1, Workers: workers}
		rep, err := n.Verify(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.VerifyPortfolio(props, opts)
		if err != nil {
			t.Fatal(err)
		}
		return canon.FormatReport(spec.Net, rep), canon.FormatPortfolio(spec.Net, res)
	}
	wantRep, wantPort := render(1)
	defer core.SetExecHook(nil)
	for _, workers := range []int{2, 4} {
		for _, salt := range []uint32{0, 0x9e3779b9} {
			core.SetExecHook(func(f topo.Flow) {
				h := fnv.New32a()
				h.Write([]byte(f.String()))
				// 0–300µs, class- and salt-dependent.
				time.Sleep(time.Duration((h.Sum32()^salt)%4) * 100 * time.Microsecond)
			})
			gotRep, gotPort := render(workers)
			if gotRep != wantRep {
				t.Errorf("workers=%d salt=%#x: report differs from the one-worker run\n%s\n--- want ---\n%s", workers, salt, gotRep, wantRep)
			}
			if gotPort != wantPort {
				t.Errorf("workers=%d salt=%#x: portfolio result differs from the one-worker run\n%s\n--- want ---\n%s", workers, salt, gotPort, wantPort)
			}
		}
	}
}
