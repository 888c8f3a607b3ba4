package core

import (
	"testing"

	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/topo"
)

// ecmpLoop is a three-router network with an ECMP micro-loop: A splits
// 50.0.0.0/24 between B and D, B sends its half straight back to A, D
// delivers. Each round trip halves the circulating volume, so every load
// is a geometric series whose value depends on where the simulator stops
// — and with A-D failed the loop never drains at all.
const ecmpLoop = `
router A as 100 loopback 10.0.0.1
router B as 100 loopback 10.0.0.2
router D as 100 loopback 10.0.0.3
link A B cost 10 capacity 100 addr-a 1.0.0.1 addr-b 1.0.0.2
link A D cost 10 capacity 100 addr-a 2.0.0.1 addr-b 2.0.0.2
config A
  static 50.0.0.0/24 via 1.0.0.2
  static 50.0.0.0/24 via 2.0.0.2
config B
  static 50.0.0.0/24 via 1.0.0.1
config D
  network 50.0.0.0/24
flow f ingress A src 9.0.0.1 dst 50.0.0.1 dscp 0 gbps 64
failures k 1 mode links
`

// TestHopBoundSharedWithConcrete pins the single forwarding hop bound
// (topo.HopBound): on a forwarding loop the symbolic engine and the concrete
// simulator must truncate the same series at the same depth, so a reported
// witness value replays exactly. With separate bounds (engine 16, concrete
// 64) A->B under the A-D failure read 512 vs 2048 Gbps.
func TestHopBoundSharedWithConcrete(t *testing.T) {
	fx := newFixture(t, ecmpLoop, topo.FailLinks, 1, Options{})
	rep := mustRun(t, func() (*Report, error) { return fx.ver.Run(nil, nil, 0.5) })
	if len(rep.Violations) == 0 {
		t.Fatal("the loop must overload some link")
	}
	net := fx.spec.Net
	sim := concrete.NewSim(net, fx.spec.Configs)
	replay := func(failed []topo.LinkID) map[topo.DirLinkID]float64 {
		sc := concrete.NewScenario(net)
		for _, l := range failed {
			sc.LinkDown[l] = true
		}
		return sim.Simulate(sc, fx.spec.Flows).Load
	}
	for _, v := range rep.Violations {
		if got := replay(v.FailedLinks)[v.Link]; got != v.Value {
			t.Errorf("%s: symbolic %.9g Gbps, concrete replay %.9g", v.Describe(net), v.Value, got)
		}
	}
	// The undrained loop: with A-D down all 64 Gbps bounce between A and B
	// until the bound stops them.
	ab, _ := net.FindDirLink("A", "B")
	adLink, _ := net.FindLink("A", "D")
	if sym, conc := fx.load(t, "A", "B", "A-D"), replay([]topo.LinkID{adLink.ID})[ab]; sym != conc {
		t.Errorf("A->B with A-D failed: symbolic %.9g Gbps, concrete %.9g", sym, conc)
	}
}
