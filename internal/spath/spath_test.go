package spath

import (
	"math"
	"testing"

	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

func mustSpec(t testing.TB, load func() (*config.Spec, error)) *config.Spec {
	t.Helper()
	spec, err := load()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestFaithful(t *testing.T) {
	ft, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !Faithful(ft) {
		t.Error("FatTree (pure eBGP) must be inside the QARC model")
	}
	if Faithful(mustSpec(t, paperex.MotivatingSpec)) {
		t.Error("the motivating example (SR + iBGP) must be outside the QARC model")
	}
	if Faithful(mustSpec(t, paperex.MisconfigSpec)) {
		t.Error("the misconfig example (statics + redistribution) must be outside the QARC model")
	}
}

// TestSpathMatchesConcreteOnFatTree cross-validates the shortest-path
// model against the full concrete simulator inside the model's faithful
// domain (uniform-cost pure-eBGP FatTree): per-link loads must agree for
// every single-failure scenario.
func TestSpathMatchesConcreteOnFatTree(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 5, 0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(spec.Net, spec.Configs, flows)
	sim := concrete.NewSim(spec.Net, spec.Configs)

	check := func(failed []topo.LinkID) {
		down := make([]bool, spec.Net.NumLinks())
		sc := concrete.NewScenario(spec.Net)
		for _, l := range failed {
			down[l] = true
			sc.LinkDown[l] = true
		}
		spLoad, _ := model.loadsForTest(down)
		res := sim.Simulate(sc, flows)
		for li := range spec.Net.Links {
			for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
				dl := topo.MakeDirLinkID(topo.LinkID(li), d)
				if diff := math.Abs(spLoad[dl] - res.Load[dl]); diff > 1e-6 {
					t.Fatalf("failed=%v link %s: spath %.9g vs concrete %.9g",
						failed, spec.Net.DirLinkName(dl), spLoad[dl], res.Load[dl])
				}
			}
		}
	}
	check(nil)
	for li := 0; li < spec.Net.NumLinks(); li++ {
		check([]topo.LinkID{topo.LinkID(li)})
	}
}

// TestVerifyFindsOverload plants an asymmetric workload that overloads an
// edge link under a failure.
func TestVerifyFindsOverload(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Enough pairwise flows that killing an agg-edge link must overload
	// the remaining 40G link into the destination edge router.
	flows, err := flowgen.Pairwise(spec, 6, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(spec.Net, spec.Configs, flows)
	rep := model.Verify(1, Options{OverloadFactor: 1.0})
	if rep.Holds {
		t.Fatal("expected an overload under full pairwise load")
	}
	for _, v := range rep.Violations {
		if len(v.FailedLinks) > 1 {
			t.Errorf("violation with %d failures under k=1", len(v.FailedLinks))
		}
		if v.Value <= v.Limit-1e-6 {
			t.Errorf("reported value %.6g below limit %.6g", v.Value, v.Limit)
		}
	}
	if rep.Scenarios == 0 {
		t.Error("no scenarios evaluated")
	}
}

func TestStopAtFirst(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 6, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(spec.Net, spec.Configs, flows)
	rep := model.Verify(1, Options{OverloadFactor: 1.0, StopAtFirst: true})
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %d, want 1", len(rep.Violations))
	}
}

// TestUnreachableFlowDropped checks flows to unknown destinations are
// excluded from the model.
func TestUnreachableFlowDropped(t *testing.T) {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flowgen.Pairwise(spec, 5, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	bogus := flows[0]
	bogus.Dst = mustAddr("203.0.113.9")
	model := NewModel(spec.Net, spec.Configs, append(flows, bogus))
	if len(model.flows) != len(flows) {
		t.Errorf("model flows = %d, want %d (bogus dropped)", len(model.flows), len(flows))
	}
}
