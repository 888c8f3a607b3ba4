package core

import (
	"reflect"
	"testing"

	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// carryingCache is an STF cache that never hits and carries check results:
// a class's key is its representative's ingress, DSCP and destination,
// which fix its STF within one network.
type carryingCache struct {
	results      map[routesim.Fingerprint]PlanResult
	carried, run int
}

func (c *carryingCache) Lookup(e *Engine, rep topo.Flow) (*FlowSTF, bool) { return nil, false }

func (c *carryingCache) Store(e *Engine, rep topo.Flow, stf *FlowSTF) {}

func (c *carryingCache) ClassKey(e *Engine, rep topo.Flow) routesim.Fingerprint {
	var k routesim.Fingerprint
	k.U64(uint64(rep.Ingress))
	k.U64(uint64(rep.DSCP))
	k.Addr(rep.Dst)
	return k
}

func (c *carryingCache) CarriedCheck(key routesim.Fingerprint) (PlanResult, bool) {
	r, ok := c.results[key]
	return r, ok
}

func (c *carryingCache) Loads() LoadCarrier { return nil }

func (c *carryingCache) CarryChecks(results map[routesim.Fingerprint]PlanResult, carried, run int) {
	c.results, c.carried, c.run = results, carried, run
}

// TestCheckCarriedEqualsRun: a second verifier of the same flows takes every
// link and delivered result from the first — each equal, but for its zero
// Elapsed, to a run with no carrier — re-runs the aggregate plan, which is
// not keyed, and re-runs exactly the link plans whose classes' volumes a
// changed flow moved.
func TestCheckCarriedEqualsRun(t *testing.T) {
	spec, flows := wanWorkload(t)
	net := spec.Net
	pfx, err := flows[0].Dst.Prefix(24)
	if err != nil {
		t.Fatal(err)
	}
	plans := lower(net, []topo.LoadBound{{Link: 0, Max: 1}, {Link: 3, Min: 5, Max: 1e9}},
		[]topo.DeliveredBound{{Prefix: pfx, Min: 1e9, Max: 2e9}}, 0.5)
	plans = append(plans, Plan{Subject: Subject{Links: []topo.DirLinkID{0, 1}}, Checks: []LinkCheck{{Max: 1, CondVar: -1}}})
	check := func(cache STFCache, flows []topo.Flow) []PlanResult {
		t.Helper()
		out, err := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{STFCache: cache}), flows).Check(plans)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			out[i].Stat.Elapsed = 0
		}
		return out
	}
	want := check(nil, flows)
	c := &carryingCache{}
	if got := check(c, flows); !reflect.DeepEqual(got, want) || c.carried != 0 || c.run != len(plans) {
		t.Fatalf("first run: %d carried, %d run of %d plans; results equal a plain run: %v", c.carried, c.run, len(plans), reflect.DeepEqual(got, want))
	}
	if got := check(c, flows); !reflect.DeepEqual(got, want) || c.carried != len(plans)-1 || c.run != 1 {
		t.Fatalf("second run: %d carried, %d run of %d plans; results equal a plain run: %v", c.carried, c.run, len(plans), reflect.DeepEqual(got, want))
	}

	// More volume on one flow moves the links its class crosses, and no other.
	v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	moved := make(map[topo.DirLinkID]bool)
	for _, lf := range v.stfs[v.classOf[0]].Links {
		moved[lf.Link] = true
	}
	heavier := append([]topo.Flow(nil), flows...)
	heavier[0].Gbps += 1
	want = check(nil, heavier)
	rerun := 1 // the aggregate
	for _, p := range plans {
		if p.Subject.Prefix.IsValid() {
			rerun++ // flows[0] is inside
		} else if len(p.Subject.Links) == 0 && moved[p.Subject.Link] {
			rerun++
		}
	}
	if got := check(c, heavier); !reflect.DeepEqual(got, want) || c.run != rerun || c.carried != len(plans)-rerun {
		t.Fatalf("after a volume change: %d carried, %d run, want %d run; results equal a plain run: %v", c.carried, c.run, rerun, reflect.DeepEqual(got, want))
	}
	if rerun == 1 || rerun == len(plans) {
		t.Fatalf("the volume change moved %d of %d plans: the case covers less than it claims", rerun, len(plans))
	}
}
