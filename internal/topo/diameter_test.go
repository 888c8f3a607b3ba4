package topo_test

import (
	"os"
	"testing"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/topo"
)

// bfsDiameter is the hop-count diameter by a breadth-first search from every
// router over the exported adjacency: the reference Network.Diameter is held
// to.
func bfsDiameter(n *topo.Network) int {
	longest := 0
	for s := 0; s < n.NumRouters(); s++ {
		dist := map[topo.RouterID]int{topo.RouterID(s): 0}
		for queue := []topo.RouterID{topo.RouterID(s)}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, e := range n.Out(u) {
				if _, seen := dist[e.To]; !seen {
					dist[e.To] = dist[u] + 1
					longest = max(longest, dist[e.To])
					queue = append(queue, e.To)
				}
			}
		}
	}
	return longest
}

// TestDiameterFoundOnce: a network's diameter is found once, on first use.
// The bounds derived from it (BGP's round bound, the forwarding hop bound),
// which route simulation reads on every run, allocate nothing after that,
// and a WithOwnLinks copy and a re-parse of the canonical text report the
// diameter a fresh search finds.
func TestDiameterFoundOnce(t *testing.T) {
	text, err := os.ReadFile("../../testdata/wan-1.yu")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := config.ParseSpecString(string(text))
	if err != nil {
		t.Fatal(err)
	}
	generated, err := gen.WAN(gen.WANSpec{Routers: 40, Links: 80, Prefixes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*config.Spec{parsed, generated} {
		canonical, err := canon.FormatSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := config.ParseSpecString(canonical)
		if err != nil {
			t.Fatal(err)
		}
		want := bfsDiameter(spec.Net)
		if want < 2 {
			t.Fatalf("diameter %d: the network is too small to tell", want)
		}
		for name, n := range map[string]*topo.Network{"built": spec.Net, "copy": spec.Net.WithOwnLinks(), "re-parsed": reparsed.Net} {
			if got := n.Diameter(); got != want {
				t.Errorf("%s network: diameter %d, a fresh search finds %d", name, got, want)
			}
		}
		n := spec.Net
		if allocs := testing.AllocsPerRun(20, func() { n.RoundBound(); n.HopBound(3) }); allocs != 0 {
			t.Errorf("RoundBound and HopBound allocate %v times a call", allocs)
		}
	}
}
