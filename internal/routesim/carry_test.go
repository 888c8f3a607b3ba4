package routesim

import (
	"context"
	"errors"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

// testCarrier carries one IS-IS and one BGP base, as the daemon does, and
// records what the last converged run reported.
type testCarrier struct {
	igp                 *ImportBase
	bgp                 *BGPBase
	reported            bool
	carried, recomputed int
}

func (c *testCarrier) CarriedIGP(key TopoKey) *ImportBase {
	if c.igp != nil && c.igp.Key() == key {
		return c.igp
	}
	return nil
}

func (c *testCarrier) CarryIGP(b *ImportBase) { c.igp = b }

func (c *testCarrier) CarriedBGP(key BGPKey) *BGPBase {
	if c.bgp != nil && c.bgp.Key() == key {
		return c.bgp
	}
	return nil
}

func (c *testCarrier) CarryBGP(b *BGPBase, carried, recomputed int) {
	if b != nil {
		c.bgp = b
	}
	c.reported, c.carried, c.recomputed = true, carried, recomputed
}

// run simulates spec in a fresh manager through c, as one daemon build.
func (c *testCarrier) run(spec *config.Spec) (*FailVars, *Result, error) {
	c.reported = false
	fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 1)
	res, err := RunContext(context.Background(), fv, spec.Configs, c)
	return fv, res, err
}

// cloneSpec copies spec deeply enough that a delta on the copy leaves spec
// alone: every router config, its neighbors and their deny lists.
func cloneSpec(spec *config.Spec) *config.Spec {
	out := *spec
	out.Flows = slices.Clone(spec.Flows)
	out.Configs = make(config.Configs, len(spec.Configs))
	for name, rc := range spec.Configs {
		cp := *rc
		cp.Networks = slices.Clone(rc.Networks)
		cp.Statics = slices.Clone(rc.Statics)
		cp.Neighbors = slices.Clone(rc.Neighbors)
		for i := range cp.Neighbors {
			cp.Neighbors[i].ExportDeny = slices.Clone(rc.Neighbors[i].ExportDeny)
		}
		out.Configs[name] = &cp
	}
	return &out
}

// withLinkCost rebuilds spec's topology with link i's cost set both ways.
func withLinkCost(t *testing.T, spec *config.Spec, i int, cost int64) *config.Spec {
	t.Helper()
	b := topo.NewBuilder()
	for _, r := range spec.Net.Routers {
		b.AddRouter(r.Name, r.AS, topo.WithLoopback(r.Loopback))
	}
	for j, l := range spec.Net.Links {
		ab, ba := l.CostAB, l.CostBA
		if j == i {
			ab, ba = cost, cost
		}
		b.AddLink(spec.Net.Routers[l.A].Name, spec.Net.Routers[l.B].Name,
			topo.WithAsymCost(ab, ba), topo.WithCapacity(l.Capacity), topo.WithAddrs(l.AddrA, l.AddrB))
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := cloneSpec(spec)
	out.Net = net
	return out
}

// TestBGPCarryMatchesCold: on a generated WAN where one router
// redistributes its statics, each of the daemon's eight delta kinds is
// simulated through a carrier that holds the previous version's result.
// The carried-then-restricted BGP equals a cold ComputeBGP in the same
// manager — the same candidates in the same order, pointer-equal guards —
// and only the prefixes whose inputs moved are recomputed.
func TestBGPCarryMatchesCold(t *testing.T) {
	spec, err := gen.WAN(gen.WANSpec{Routers: 30, Links: 60, Prefixes: 12, SRPolicyFraction: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var red *config.Router
	for _, r := range spec.Net.Routers {
		if rc := spec.Configs[r.Name]; rc != nil && len(rc.Neighbors) > 0 {
			red = rc
			break
		}
	}
	if red == nil {
		t.Fatal("the generated WAN has no BGP session")
	}
	red.RedistributeStatic = true
	pfxs := gen.Prefixes(spec)
	nb := red.Neighbors[0]
	all := len(pfxs)

	c := &testCarrier{}
	check := func(what string, spec *config.Spec, carried, recomputed int) {
		t.Helper()
		fv, res, err := c.run(spec)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		cold := ComputeBGP(fv, spec.Configs, ComputeIGP(fv))
		if err := diffRIBs(fv.Net, res.BGP.RIBs, cold.RIBs); err != nil {
			t.Fatalf("%s: carried BGP differs from a cold run: %v", what, err)
		}
		if !c.reported || c.carried != carried || c.recomputed != recomputed {
			t.Fatalf("%s: %d prefixes carried and %d recomputed (reported %v), want %d and %d",
				what, c.carried, c.recomputed, c.reported, carried, recomputed)
		}
	}
	check("first version", spec, 0, all)

	static := config.StaticRoute{Prefix: pfxs[1], Discard: true}
	for _, step := range []struct {
		op                  string
		apply               func(*config.Spec) *config.Spec
		carried, recomputed int
	}{
		{"add-flow", func(s *config.Spec) *config.Spec {
			s.Flows = append(s.Flows, topo.Flow{Name: "extra", Ingress: 1, Dst: pfxs[0].Addr(), Gbps: 3})
			return s
		}, all, 0},
		{"remove-flow", func(s *config.Spec) *config.Spec { s.Flows = s.Flows[:len(s.Flows)-1]; return s }, all, 0},
		// A redistributed static for a prefix others originate moves it.
		{"add-static", func(s *config.Spec) *config.Spec {
			rc := s.Configs[red.Name]
			rc.Statics = append(rc.Statics, static)
			return s
		}, all - 1, 1},
		{"remove-static", func(s *config.Spec) *config.Spec {
			rc := s.Configs[red.Name]
			rc.Statics = slices.DeleteFunc(rc.Statics, func(st config.StaticRoute) bool { return st == static })
			return s
		}, all - 1, 1},
		{"add-export-deny", func(s *config.Spec) *config.Spec {
			n := &s.Configs[red.Name].Neighbors[0]
			n.ExportDeny = append(n.ExportDeny, pfxs[0])
			return s
		}, all - 1, 1},
		{"remove-export-deny", func(s *config.Spec) *config.Spec {
			n := &s.Configs[red.Name].Neighbors[0]
			n.ExportDeny = slices.DeleteFunc(n.ExportDeny, func(p netip.Prefix) bool { return p == pfxs[0] })
			return s
		}, all - 1, 1},
		{"set-local-pref", func(s *config.Spec) *config.Spec {
			s.Configs[red.Name].Neighbors[0].LocalPref = nb.LocalPref + 150
			return s
		}, 0, all},
		{"set-link-cost", func(s *config.Spec) *config.Spec {
			return withLinkCost(t, s, 0, s.Net.Links[0].CostAB+7)
		}, 0, all},
	} {
		spec = step.apply(cloneSpec(spec))
		check(step.op, spec, step.carried, step.recomputed)
	}
	// A new prefix is recomputed alone; removing it recomputes nothing.
	added := cloneSpec(spec)
	rc := added.Configs[red.Name]
	rc.Statics = append(rc.Statics, config.StaticRoute{Prefix: netip.MustParsePrefix("55.0.0.0/8"), Discard: true})
	check("add-static of a new prefix", added, all, 1)
	check("back again", spec, all, 0)
}

// TestBGPCarryNotConverged: a DISAGREE gadget brought in by a delta is
// recomputed alone, beside a carried prefix, and fails with the same
// round count and the same "still changing" list as a cold run; nothing is
// carried from it, so the next version replays the last converged one.
func TestBGPCarryNotConverged(t *testing.T) {
	data, err := os.ReadFile("../../testdata/notconverged/disagree.yu")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(text string) *config.Spec {
		t.Helper()
		spec, err := config.ParseSpecString(text)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	const dispute = "config O\n  network 100.9.0.0/24\n"
	disagree := string(data)
	if !strings.Contains(disagree, dispute) {
		t.Fatal("disagree.yu no longer originates the disputed prefix at O")
	}
	// A's own prefix settles: every other route to it carries A's AS.
	settled := strings.Replace(disagree, dispute, "config O\n", 1)
	settled = strings.Replace(settled, "config A\n", "config A\n  network 100.7.0.0/24\n", 1)
	disagree = strings.Replace(disagree, "config A\n", "config A\n  network 100.7.0.0/24\n", 1)

	c := &testCarrier{}
	if _, _, err := c.run(parse(settled)); err != nil || c.carried != 0 || c.recomputed != 1 {
		t.Fatalf("settled version: %v, %d carried, %d recomputed", err, c.carried, c.recomputed)
	}
	spec := parse(disagree)
	_, _, err = c.run(spec)
	_, _, coldErr := (&testCarrier{}).run(spec)
	var nc *ErrNotConverged
	if !errors.As(err, &nc) || !errors.As(coldErr, &nc) {
		t.Fatalf("carried run: %v; cold run: %v; want ErrNotConverged from both", err, coldErr)
	}
	if err.Error() != coldErr.Error() {
		t.Fatalf("carried run: %q\ncold run:    %q", err, coldErr)
	}
	if c.reported {
		t.Fatal("a run that did not converge reported to the carrier")
	}
	if !strings.Contains(err.Error(), "still changing: A 100.9.0.0/24, B 100.9.0.0/24") {
		t.Fatalf("unexpected verdict %q", err)
	}
	fv, res, err := c.run(parse(settled))
	if err != nil || c.carried != 1 || c.recomputed != 0 {
		t.Fatalf("settled again: %v, %d carried, %d recomputed, want 1 and 0", err, c.carried, c.recomputed)
	}
	if err := diffRIBs(fv.Net, res.BGP.RIBs, ComputeBGP(fv, parse(settled).Configs, ComputeIGP(fv)).RIBs); err != nil {
		t.Fatal(err)
	}
}

// TestSealedBGPReleasesSource is the memory contract of the BGP result the
// daemon carries: sealed, it holds no node, so the manager that computed
// it is reclaimed while the seal lives on, and the next run replays it to
// the RIBs a cold run builds. (The motivating network, for the reason
// TestSealedIGPReleasesSource gives.)
func TestSealedBGPReleasesSource(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	c := &testCarrier{}
	freed := make(chan struct{})
	func() {
		fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 1)
		runtime.SetFinalizer(fv.M.Zero(), func(*mtbdd.Node) { close(freed) })
		if _, err := RunContext(context.Background(), fv, spec.Configs, c); err != nil {
			t.Fatal(err)
		}
	}()
	if c.bgp == nil || c.recomputed == 0 {
		t.Fatal("the first run sealed no BGP result")
	}
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("a sealed BGP result keeps the manager that computed it reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	fv, res, err := c.run(spec)
	if err != nil || c.carried == 0 || c.recomputed != 0 {
		t.Fatalf("replay: %v, %d carried, %d recomputed", err, c.carried, c.recomputed)
	}
	if err := diffRIBs(fv.Net, res.BGP.RIBs, ComputeBGP(fv, spec.Configs, ComputeIGP(fv)).RIBs); err != nil {
		t.Fatal(err)
	}
}
