package concrete_test

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"testing"

	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func mustSpec(t *testing.T, load func() (*config.Spec, error)) *config.Spec {
	t.Helper()
	spec, err := load()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func failLinks(t *testing.T, net *topo.Network, names ...string) *concrete.Scenario {
	t.Helper()
	sc := concrete.NewScenario(net)
	for _, name := range names {
		var a, b string
		for i := 0; i < len(name); i++ {
			if name[i] == '-' {
				a, b = name[:i], name[i+1:]
			}
		}
		l, ok := net.FindLink(a, b)
		if !ok {
			t.Fatalf("no link %s", name)
		}
		sc.LinkDown[l.ID] = true
	}
	return sc
}

func loadOf(t *testing.T, net *topo.Network, res *concrete.ScenarioResult, a, b string) float64 {
	t.Helper()
	d, ok := net.FindDirLink(a, b)
	if !ok {
		t.Fatalf("no link %s->%s", a, b)
	}
	return res.Load[d]
}

// TestConcreteMotivatingScenarios reproduces Figure 1(a)-(e) with the
// concrete simulator.
func TestConcreteMotivatingScenarios(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)

	// (a) no failures.
	res := sim.Simulate(concrete.NewScenario(spec.Net), spec.Flows)
	for _, c := range []struct {
		a, b string
		want float64
	}{{"A", "C", 20}, {"B", "C", 40}, {"B", "D", 40}, {"C", "E", 70}, {"D", "E", 30}, {"D", "C", 10}} {
		if got := loadOf(t, spec.Net, res, c.a, c.b); !approx(got, c.want) {
			t.Errorf("(a) %s->%s = %.6g, want %.6g", c.a, c.b, got, c.want)
		}
	}
	if !approx(res.Delivered[0]+res.Delivered[1], 100) {
		t.Errorf("(a) delivered = %.6g", res.Delivered[0]+res.Delivered[1])
	}

	// (c) B-D fails: C-E carries 100.
	res = sim.Simulate(failLinks(t, spec.Net, "B-D"), spec.Flows)
	if got := loadOf(t, spec.Net, res, "C", "E"); !approx(got, 100) {
		t.Errorf("(c) C->E = %.6g, want 100", got)
	}

	// (e) B-C and B-D fail: everything via A.
	res = sim.Simulate(failLinks(t, spec.Net, "B-C", "B-D"), spec.Flows)
	if got := loadOf(t, spec.Net, res, "A", "C"); !approx(got, 100) {
		t.Errorf("(e) A->C = %.6g, want 100", got)
	}
}

// TestDifferentialSymbolicVsConcrete is the repository's central
// end-to-end invariant: for every scenario within the failure budget, the
// symbolic traffic load evaluated at that scenario equals the concrete
// simulator's load, on every directed link, for several fixtures.
func TestDifferentialSymbolicVsConcrete(t *testing.T) {
	fixtures := []struct {
		name string
		text string
	}{
		{"motivating", paperex.Motivating},
		{"sranycast", paperex.SRAnycast},
		{"misconfig", paperex.Misconfig},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			spec, err := config.ParseSpecString(fx.text)
			if err != nil {
				t.Fatal(err)
			}
			const k = 2
			m := mtbdd.New()
			fv := routesim.NewFailVars(m, spec.Net, topo.FailLinks, k)
			rs, err := routesim.Run(fv, spec.Configs)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(rs, core.Options{DisableGlobalEquiv: true})
			ver := core.NewVerifier(eng, spec.Flows)
			sim := concrete.NewSim(spec.Net, spec.Configs)

			// Enumerate all scenarios with <= k failed links.
			var failable []topo.LinkID
			for i := range spec.Net.Links {
				if !spec.Net.Links[i].NoFail {
					failable = append(failable, topo.LinkID(i))
				}
			}
			var scenarios [][]topo.LinkID
			scenarios = append(scenarios, nil)
			for i, a := range failable {
				scenarios = append(scenarios, []topo.LinkID{a})
				for _, b := range failable[i+1:] {
					scenarios = append(scenarios, []topo.LinkID{a, b})
				}
			}
			for _, failed := range scenarios {
				sc := concrete.NewScenario(spec.Net)
				for _, l := range failed {
					sc.LinkDown[l] = true
				}
				res := sim.Simulate(sc, spec.Flows)
				assign := fv.Scenario(failed, nil)
				for li := range spec.Net.Links {
					for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
						dl := topo.MakeDirLinkID(topo.LinkID(li), d)
						tau, _ := ver.LinkLoad(dl)
						sym := m.Eval(tau, assign)
						conc := res.Load[dl]
						if !approx(sym, conc) {
							t.Fatalf("failed=%v link %s: symbolic %.9g vs concrete %.9g",
								failed, spec.Net.DirLinkName(dl), sym, conc)
						}
					}
				}
				// Delivered totals must agree too.
				var concDel float64
				for fi := range spec.Flows {
					concDel += res.Delivered[fi]
				}
				var symDel float64
				for _, s := range ver.FlowSTFs() {
					symDel += s.Flow.Gbps * m.Eval(s.Delivered, assign)
				}
				if !approx(symDel, concDel) {
					t.Fatalf("failed=%v delivered: symbolic %.9g vs concrete %.9g", failed, symDel, concDel)
				}
			}
		})
	}
}

// TestEnumerationFindsPaperViolation checks the baseline verifier finds
// the B-D failure overload, matching YU.
func TestEnumerationFindsPaperViolation(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)
	rep := sim.VerifyKFailures(spec.Flows, 1, topo.FailLinks, concrete.EnumOptions{OverloadFactor: 0.95})
	if rep.Holds {
		t.Fatal("expected violations")
	}
	bd, _ := spec.Net.FindLink("B", "D")
	ce, _ := spec.Net.FindDirLink("C", "E")
	found := false
	for _, v := range rep.Violations {
		if v.Link == ce && len(v.FailedLinks) == 1 && v.FailedLinks[0] == bd.ID {
			found = true
			if !approx(v.Value, 100) {
				t.Errorf("C-E load = %.6g", v.Value)
			}
		}
	}
	if !found {
		t.Error("B-D -> C-E violation not found by enumeration")
	}
	// Scenario count: 1 + n for k=1.
	n := 0
	for i := range spec.Net.Links {
		if !spec.Net.Links[i].NoFail {
			n++
		}
	}
	if rep.Scenarios != 1+n {
		t.Errorf("scenarios = %d, want %d", rep.Scenarios, 1+n)
	}
}

// TestIncrementalMatchesFull cross-checks the incremental enumerator
// against full re-simulation on all three fixtures.
func TestIncrementalMatchesFull(t *testing.T) {
	for _, text := range []string{paperex.Motivating, paperex.SRAnycast, paperex.Misconfig} {
		spec, err := config.ParseSpecString(text)
		if err != nil {
			t.Fatal(err)
		}
		sim := concrete.NewSim(spec.Net, spec.Configs)
		full := sim.VerifyKFailures(spec.Flows, 2, topo.FailLinks,
			concrete.EnumOptions{OverloadFactor: 1.0, Delivered: spec.Delivered})
		inc := sim.VerifyKFailures(spec.Flows, 2, topo.FailLinks,
			concrete.EnumOptions{OverloadFactor: 1.0, Delivered: spec.Delivered, Incremental: true})
		if full.Holds != inc.Holds || len(full.Violations) != len(inc.Violations) {
			t.Fatalf("incremental mismatch: full %d violations (holds=%v), inc %d (holds=%v)",
				len(full.Violations), full.Holds, len(inc.Violations), inc.Holds)
		}
		if inc.SimulatedFlows >= full.SimulatedFlows {
			t.Errorf("incremental did not save work: %d >= %d", inc.SimulatedFlows, full.SimulatedFlows)
		}
	}
}

// TestMisconfigDropScenario reproduces Figure 10 concretely: failing the
// D1-WAN link drops the service traffic.
func TestMisconfigDropScenario(t *testing.T) {
	spec := mustSpec(t, paperex.MisconfigSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)
	// No failure: traffic delivered.
	res := sim.Simulate(concrete.NewScenario(spec.Net), spec.Flows)
	if !approx(res.Delivered[0], 100) {
		t.Fatalf("no-failure delivered = %.6g, want 100", res.Delivered[0])
	}
	// D1-WAN fails: traffic matches 10/8 at D1 and is discarded.
	res = sim.Simulate(failLinks(t, spec.Net, "D1-WAN"), spec.Flows)
	if !approx(res.Delivered[0], 0) {
		t.Errorf("delivered = %.6g after D1-WAN failure, want 0 (dropped at D1)", res.Delivered[0])
	}
	if !approx(res.Dropped[0], 100) {
		t.Errorf("dropped = %.6g, want 100", res.Dropped[0])
	}
	// M1-D1 fails instead: redundancy works, traffic survives via M2-D2.
	res = sim.Simulate(failLinks(t, spec.Net, "M1-D1"), spec.Flows)
	if !approx(res.Delivered[0], 100) {
		t.Errorf("delivered = %.6g after M1-D1 failure, want 100 (via M2/D2)", res.Delivered[0])
	}
}

// TestSRAnycastOverload reproduces Figure 9 concretely: failing B2-C2
// pushes 80 Gbps over the 50 Gbps B1-B2 link.
func TestSRAnycastOverload(t *testing.T) {
	spec := mustSpec(t, paperex.SRAnycastSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)
	res := sim.Simulate(concrete.NewScenario(spec.Net), spec.Flows)
	if got := loadOf(t, spec.Net, res, "B1", "B2") + loadOf(t, spec.Net, res, "B2", "B1"); !approx(got, 0) {
		t.Fatalf("B1-B2 carries %.6g with no failure, want 0", got)
	}
	res = sim.Simulate(failLinks(t, spec.Net, "B2-C2"), spec.Flows)
	if got := loadOf(t, spec.Net, res, "B2", "B1"); !approx(got, 80) {
		t.Errorf("B2->B1 = %.6g after B2-C2 failure, want 80", got)
	}
	if !approx(res.Delivered[0], 160) {
		t.Errorf("delivered = %.6g, want 160", res.Delivered[0])
	}
}

// TestDeliveredBoundEnumeration checks delivered-bound handling.
func TestDeliveredBoundEnumeration(t *testing.T) {
	spec := mustSpec(t, paperex.MisconfigSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)
	rep := sim.VerifyKFailures(spec.Flows, 1, topo.FailLinks, concrete.EnumOptions{
		Delivered: []topo.DeliveredBound{{Prefix: netip.MustParsePrefix("10.1.0.0/26"), Min: 99, Max: math.Inf(1)}},
	})
	if rep.Holds {
		t.Fatal("expected a delivered violation")
	}
	d1wan, _ := spec.Net.FindLink("D1", "WAN")
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "delivered" && len(v.FailedLinks) == 1 && v.FailedLinks[0] == d1wan.ID {
			found = true
		}
	}
	if !found {
		t.Error("D1-WAN delivered violation not found")
	}
}

// TestStopAtFirst checks early termination.
func TestStopAtFirst(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)
	rep := sim.VerifyKFailures(spec.Flows, 1, topo.FailLinks,
		concrete.EnumOptions{OverloadFactor: 0.95, StopAtFirst: true})
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %d, want exactly 1", len(rep.Violations))
	}
}

// expiresAfter is a context whose deadline passes at its n+1th Err call.
type expiresAfter struct {
	context.Context
	n, calls int
}

func (c *expiresAfter) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestEnumerationHonoursDeadlinePerScenario: the enumeration polls its
// context before every scenario, so an expired deadline stops it within
// the scenario in flight — on a large network one scenario is a second,
// 64 of them a minute.
func TestEnumerationHonoursDeadlinePerScenario(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	sim := concrete.NewSim(spec.Net, spec.Configs)
	for _, incremental := range []bool{false, true} {
		for _, n := range []int{0, 1, 5} {
			ctx := &expiresAfter{Context: context.Background(), n: n}
			rep := sim.VerifyKFailures(spec.Flows, 2, topo.FailLinks,
				concrete.EnumOptions{OverloadFactor: 0.95, Incremental: incremental, Ctx: ctx})
			if !errors.Is(rep.Err, govern.ErrDeadline) || !rep.TimedOut {
				t.Fatalf("incremental=%v n=%d: err %v, timed out %v", incremental, n, rep.Err, rep.TimedOut)
			}
			if rep.Scenarios > n+1 {
				t.Errorf("incremental=%v: deadline passed after %d scenarios, enumeration ran %d", incremental, n, rep.Scenarios)
			}
		}
	}
}
