package core_test

import (
	"math"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// loadCache is a carrier that carries loads in a map, every list it is
// handed whole, and nothing else.
type loadCache struct {
	core.NoCarrier
	loads          map[routesim.Fingerprint]storedLoad
	carried, built int
}

type storedLoad struct {
	l *core.SealedLoads
	i int
}

func (c *loadCache) CarriedLoad(key routesim.Fingerprint) (*core.SealedLoads, int, bool) {
	s, ok := c.loads[key]
	return s.l, s.i, ok
}

func (c *loadCache) CarryLoads(carried, keys []routesim.Fingerprint, l *core.SealedLoads) {
	c.carried, c.built = len(carried), len(keys)
	for i, k := range keys {
		c.loads[k] = storedLoad{l, i}
	}
}

// TestLoadCarriedEqualsBuilt: a verifier of the same classes takes every
// single-link, delivered and aggregate-member load from the sealed list of
// an earlier verifier's — in another manager — and each is the node sum
// builds in its own; a portfolio answered on carried loads renders byte for
// byte as a plain run's. Moving volume between two flows of one class moves
// no link load, and no class key, but moves the delivered load of a prefix
// that holds one of them and not the other: that load alone is built again.
func TestLoadCarriedEqualsBuilt(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 40, Links: 80, Prefixes: 12, SRPolicyFraction: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{Count: 600, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 3, Seed: 142})
	if err != nil {
		t.Fatal(err)
	}
	net := spec.Net
	engine := func(cache core.STFCache) *core.Engine {
		fv := routesim.NewFailVars(mtbdd.New(), net, topo.FailLinks, 1)
		rs, err := routesim.Run(fv, spec.Configs)
		if err != nil {
			t.Fatal(err)
		}
		return core.NewEngine(rs, core.Options{STFCache: cache})
	}

	// Two flows of one class — one key: one ingress and DSCP, destinations
	// matching the same prefixes — with different destinations. Whole
	// volumes on every member make the class's summed volume exact whichever
	// member carries what.
	keys := core.ClassKeys(engine(nil), flows)
	first, partner := -1, -1
	for i := 0; i < len(flows) && partner < 0; i++ {
		for j := i + 1; j < len(flows); j++ {
			if keys[i] == keys[j] && flows[i].Dst != flows[j].Dst {
				first, partner = i, j
				break
			}
		}
	}
	if partner < 0 {
		t.Fatal("no class has members with different destinations")
	}
	f0 := flows[first]
	for i := range flows {
		if keys[i] == keys[first] {
			flows[i].Gbps = 2
		}
	}
	moved := slices.Clone(flows)
	moved[first].Gbps, moved[partner].Gbps = 3, 1
	host := netip.PrefixFrom(f0.Dst, f0.Dst.BitLen())
	wide, err := f0.Dst.Prefix(16)
	if err != nil {
		t.Fatal(err)
	}

	var subjects []core.Subject
	var plans []core.Plan
	for l := topo.DirLinkID(0); int(l) < 2*net.NumLinks(); l++ {
		subjects = append(subjects, core.Subject{Link: l})
	}
	subjects = append(subjects, core.Subject{Prefix: host}, core.Subject{Prefix: wide},
		core.Subject{Links: []topo.DirLinkID{0, 3, 5}}, core.Subject{Links: []topo.DirLinkID{1, 2, 200}, Max: true})
	for _, s := range subjects {
		plans = append(plans, core.Plan{Subject: s, Checks: []core.LinkCheck{{Min: 1, Max: 40, CondVar: -1}, {Max: 30, CondVar: 2}}})
	}
	props := []topo.TLProp{
		{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.3},
		{Kind: topo.TLPDelivered, Prefix: host, Min: 0, Max: 2.5},
		{Kind: topo.TLPDelivered, Prefix: wide, Min: 1, Max: math.Inf(1)},
		{Kind: topo.TLPSumLoad, AggLinks: []topo.LinkID{0, 4, 9}, Max: 50},
		{Kind: topo.TLPMaxLoad, AggLinks: []topo.LinkID{1, 2}, Max: 20, CondSet: true, CondLink: 3},
	}
	// distinct is how many loads the plans sum: the links and prefixes, and
	// the aggregates' members, which are links already.
	distinct := 2*net.NumLinks() + 2

	check := func(v *core.Verifier) []core.PlanResult {
		t.Helper()
		out, err := v.Check(plans)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			out[i].Stat.Elapsed = 0
		}
		return out
	}
	render := func(v *core.Verifier, flows []topo.Flow) string {
		t.Helper()
		port, err := tlp.Compile(net, flows, props)
		if err != nil {
			t.Fatal(err)
		}
		res, err := port.Eval(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		return canon.FormatPortfolio(net, res)
	}

	c := &loadCache{loads: make(map[routesim.Fingerprint]storedLoad)}
	for _, fl := range []struct {
		name  string
		flows []topo.Flow
		// built is how many loads the second verifier builds.
		built int
	}{{"same flows", flows, 0}, {"volume moved inside a class", moved, 1}} {
		plain := core.NewVerifier(engine(nil), fl.flows)
		want, wantText := check(plain), render(plain, fl.flows)

		clear(c.loads)
		if check(core.NewVerifier(engine(c), flows)); c.carried != 0 || c.built != distinct {
			t.Fatalf("%s: the first verifier carried %d and built %d loads, want %d built", fl.name, c.carried, c.built, distinct)
		}

		second := core.NewVerifier(engine(c), fl.flows)
		if got := check(second); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results on carried loads differ from a plain run", fl.name)
		}
		if c.carried != distinct-fl.built || c.built != fl.built {
			t.Errorf("%s: %d loads carried and %d built, want %d built of %d", fl.name, c.carried, c.built, fl.built, distinct)
		}
		if got := render(second, fl.flows); got != wantText {
			t.Errorf("%s: the portfolio on carried loads renders\n%s\na plain run\n%s", fl.name, got, wantText)
		}
		third := core.NewVerifier(engine(c), fl.flows)
		carried, err := core.LoadsEqualSums(third, subjects)
		if err != nil {
			t.Errorf("%s: %v", fl.name, err)
		} else if carried != distinct {
			t.Errorf("%s: %d of %d loads carried", fl.name, carried, distinct)
		}
	}
}
