package topo

import (
	"net/netip"
	"testing"
)

func buildTriangle(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	b.AddRouter("A", 100)
	b.AddRouter("B", 100)
	b.AddRouter("C", 200)
	b.AddLink("A", "B", WithCost(10), WithCapacity(40))
	b.AddLink("B", "C")
	b.AddLink("A", "C", WithAsymCost(5, 7))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuilderBasics(t *testing.T) {
	n := buildTriangle(t)
	if n.NumRouters() != 3 || n.NumLinks() != 3 {
		t.Fatalf("got %d routers %d links", n.NumRouters(), n.NumLinks())
	}
	a, ok := n.RouterByName("A")
	if !ok || a.Name != "A" || a.AS != 100 {
		t.Fatalf("RouterByName(A) = %+v, %v", a, ok)
	}
	if _, ok := n.RouterByName("Z"); ok {
		t.Error("unknown router must not resolve")
	}
	if !a.Loopback.IsValid() {
		t.Error("loopback must be auto-assigned")
	}
	if r, ok := n.RouterByLoopback(a.Loopback); !ok || r.ID != a.ID {
		t.Error("loopback lookup failed")
	}
}

func TestLinkProperties(t *testing.T) {
	n := buildTriangle(t)
	l, ok := n.FindLink("A", "B")
	if !ok {
		t.Fatal("A-B link missing")
	}
	if l.Capacity != 40 || l.CostAB != 10 || l.CostBA != 10 {
		t.Errorf("link attrs = %+v", l)
	}
	l2, _ := n.FindLink("C", "A") // reversed order must also resolve
	if l2 == nil || l2.CostAB != 5 || l2.CostBA != 7 {
		t.Errorf("asym link attrs = %+v", l2)
	}
	bc, _ := n.FindLink("B", "C")
	if bc.Capacity != DefaultCapacity || bc.CostAB != DefaultLinkCost {
		t.Errorf("defaults not applied: %+v", bc)
	}
}

func TestDirLinkIDs(t *testing.T) {
	n := buildTriangle(t)
	d, ok := n.FindDirLink("A", "B")
	if !ok {
		t.Fatal("A->B missing")
	}
	rev, _ := n.FindDirLink("B", "A")
	if d.Link() != rev.Link() {
		t.Error("both directions must share the LinkID")
	}
	if d.Dir() == rev.Dir() {
		t.Error("directions must differ")
	}
	if MakeDirLinkID(d.Link(), d.Dir()) != d {
		t.Error("MakeDirLinkID roundtrip failed")
	}
	if got := n.DirLinkName(d); got != "A->B" {
		t.Errorf("DirLinkName = %q", got)
	}
	if got := n.LinkName(d.Link()); got != "A-B" {
		t.Errorf("LinkName = %q", got)
	}
}

func TestAdjacency(t *testing.T) {
	n := buildTriangle(t)
	a, _ := n.RouterByName("A")
	out := n.Out(a.ID)
	if len(out) != 2 {
		t.Fatalf("A has %d outgoing edges, want 2", len(out))
	}
	for _, e := range out {
		if e.From != a.ID {
			t.Error("outgoing edge with wrong From")
		}
		if !e.LocalAddr.IsValid() || !e.RemoteAddr.IsValid() {
			t.Error("auto interface addresses missing")
		}
		// The remote address must resolve back to this directed link.
		if d, ok := n.DirLinkToAddr(e.RemoteAddr); !ok || d != e.DirLink {
			t.Error("DirLinkToAddr inconsistent with adjacency")
		}
		if got := n.Edge(e.DirLink); got.To != e.To {
			t.Error("Edge lookup inconsistent")
		}
	}
	if len(n.In(a.ID)) != 2 {
		t.Error("A must have 2 incoming edges")
	}
}

func TestRoutersInASAndASes(t *testing.T) {
	n := buildTriangle(t)
	if got := n.RoutersInAS(100); len(got) != 2 {
		t.Errorf("AS100 routers = %v", got)
	}
	ases := n.ASes()
	if len(ases) != 2 || ases[0] != 100 || ases[1] != 200 {
		t.Errorf("ASes = %v", ases)
	}
}

func TestDiameter(t *testing.T) {
	b := NewBuilder()
	for _, name := range []string{"A", "B", "C", "D"} {
		b.AddRouter(name, 1)
	}
	b.AddLink("A", "B")
	b.AddLink("B", "C")
	b.AddLink("C", "D")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Diameter(); got != 3 {
		t.Errorf("chain diameter = %d, want 3", got)
	}
	if got := buildTriangle(t).Diameter(); got != 1 {
		t.Errorf("triangle diameter = %d, want 1", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func(b *Builder)
	}{
		{"duplicate router", func(b *Builder) {
			b.AddRouter("A", 1)
			b.AddRouter("A", 1)
		}},
		{"unknown endpoint", func(b *Builder) {
			b.AddRouter("A", 1)
			b.AddLink("A", "B")
		}},
		{"self link", func(b *Builder) {
			b.AddRouter("A", 1)
			b.AddLink("A", "A")
		}},
		{"duplicate loopback", func(b *Builder) {
			lb := netip.MustParseAddr("10.9.9.9")
			b.AddRouter("A", 1, WithLoopback(lb))
			b.AddRouter("B", 1, WithLoopback(lb))
		}},
		{"bad capacity", func(b *Builder) {
			b.AddRouter("A", 1)
			b.AddRouter("B", 1)
			b.AddLink("A", "B", WithCapacity(-1))
		}},
		{"zero cost", func(b *Builder) {
			b.AddRouter("A", 1)
			b.AddRouter("B", 1)
			b.AddLink("A", "B", WithCost(0))
		}},
		{"negative cost one way", func(b *Builder) {
			b.AddRouter("A", 1)
			b.AddRouter("B", 1)
			b.AddLink("A", "B", WithAsymCost(10, -5))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.fn(b)
			if _, err := b.Build(); err == nil {
				t.Errorf("%s: expected Build error", tc.name)
			}
		})
	}
}

func TestExplicitAddrs(t *testing.T) {
	b := NewBuilder()
	b.AddRouter("A", 1)
	b.AddRouter("B", 1)
	aAddr := netip.MustParseAddr("1.2.0.1")
	bAddr := netip.MustParseAddr("1.2.0.2")
	b.AddLink("A", "B", WithAddrs(aAddr, bAddr))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := n.FindDirLink("A", "B")
	e := n.Edge(d)
	if e.LocalAddr != aAddr || e.RemoteAddr != bAddr {
		t.Errorf("edge addrs = %v -> %v", e.LocalAddr, e.RemoteAddr)
	}
	if got, ok := n.DirLinkToAddr(bAddr); !ok || got != d {
		t.Error("explicit address lookup failed")
	}
}
