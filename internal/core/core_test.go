package core

import (
	"math"
	"net/netip"
	"reflect"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// fixture bundles everything the tests need.
type fixture struct {
	spec *config.Spec
	fv   *routesim.FailVars
	eng  *Engine
	ver  *Verifier
}

// mustRun fails the test on a governance error from Verifier.Run (tests
// that exercise governance handle the error themselves).
func mustRun(t testing.TB, run func() (*Report, error)) *Report {
	t.Helper()
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func newFixture(t testing.TB, specText string, mode topo.FailureMode, k int, opts Options) *fixture {
	t.Helper()
	spec, err := config.ParseSpecString(specText)
	if err != nil {
		t.Fatal(err)
	}
	m := mtbdd.New()
	fv := routesim.NewFailVars(m, spec.Net, mode, k)
	rs, err := routesim.Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(rs, opts)
	return &fixture{spec: spec, fv: fv, eng: eng, ver: NewVerifier(eng, spec.Flows)}
}

// buildEngine runs route simulation on a fresh manager and returns an
// engine, so two runs of one input never share MTBDD state.
func buildEngine(t testing.TB, spec *config.Spec, mode topo.FailureMode, k int, opts Options) *Engine {
	t.Helper()
	m := mtbdd.New()
	fv := routesim.NewFailVars(m, spec.Net, mode, k)
	rs, err := routesim.Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(rs, opts)
}

// reportsEqual requires two reports of one input to be equal but for the
// per-check wall-clock times.
func reportsEqual(t *testing.T, name string, want, got *Report) {
	t.Helper()
	for _, rep := range []*Report{want, got} {
		for i := range rep.LinkStats {
			rep.LinkStats[i].Elapsed = 0
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: reports differ:\n  want: %+v\n  got:  %+v", name, want, got)
	}
}

func motivatingFixture(t testing.TB, k int) *fixture {
	return newFixture(t, paperex.Motivating, topo.FailLinks, k, Options{})
}

// load evaluates the symbolic load of directed link a->b under the given
// failed links.
func (fx *fixture) load(t testing.TB, a, b string, failed ...string) float64 {
	t.Helper()
	d, ok := fx.spec.Net.FindDirLink(a, b)
	if !ok {
		t.Fatalf("no link %s->%s", a, b)
	}
	tau, _ := fx.ver.LinkLoad(d)
	return fx.eng.Manager().Eval(tau, fx.scenario(t, failed))
}

func (fx *fixture) scenario(t testing.TB, failed []string) []bool {
	t.Helper()
	var ids []topo.LinkID
	for _, name := range failed {
		var a, b string
		for i := 0; i < len(name); i++ {
			if name[i] == '-' {
				a, b = name[:i], name[i+1:]
			}
		}
		l, ok := fx.spec.Net.FindLink(a, b)
		if !ok {
			t.Fatalf("no link %s", name)
		}
		ids = append(ids, l.ID)
	}
	return fx.fv.Scenario(ids, nil)
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestMotivatingExampleScenarioA reproduces Figure 1(a): the no-failure
// traffic loads on every labeled link.
func TestMotivatingExampleScenarioA(t *testing.T) {
	fx := motivatingFixture(t, 2)
	checks := []struct {
		a, b string
		want float64
	}{
		{"A", "C", 20},
		{"B", "C", 40},
		{"B", "D", 40},
		{"C", "E", 70},
		{"D", "E", 30},
		{"D", "C", 10},
		{"A", "B", 0},
	}
	for _, c := range checks {
		if got := fx.load(t, c.a, c.b); !approx(got, c.want) {
			t.Errorf("load %s->%s = %.6g, want %.6g", c.a, c.b, got, c.want)
		}
	}
	// The two parallel E-F links carry 50 Gbps each.
	efSum := 0.0
	for i := range fx.spec.Net.Links {
		l := fx.spec.Net.Link(topo.LinkID(i))
		an, bn := fx.spec.Net.Router(l.A).Name, fx.spec.Net.Router(l.B).Name
		if (an == "E" && bn == "F") || (an == "F" && bn == "E") {
			d := topo.MakeDirLinkID(l.ID, topo.AtoB)
			if an == "F" {
				d = topo.MakeDirLinkID(l.ID, topo.BtoA)
			}
			tau, _ := fx.ver.LinkLoad(d)
			got := fx.eng.Manager().Eval(tau, fx.scenario(t, nil))
			if !approx(got, 50) {
				t.Errorf("E->F link %d carries %.6g, want 50", i, got)
			}
			efSum += got
		}
	}
	if !approx(efSum, 100) {
		t.Errorf("total E->F = %.6g, want 100", efSum)
	}
}

// TestMotivatingExampleScenarioB reproduces Figure 1(b): B-C failed.
func TestMotivatingExampleScenarioB(t *testing.T) {
	fx := motivatingFixture(t, 2)
	checks := []struct {
		a, b string
		want float64
	}{
		{"A", "C", 20},
		{"B", "C", 0},
		{"B", "D", 80},
		{"D", "E", 60},
		{"D", "C", 20},
		{"C", "E", 40}, // f1's 20 plus p2's 20 re-routed via [F]
	}
	for _, c := range checks {
		if got := fx.load(t, c.a, c.b, "B-C"); !approx(got, c.want) {
			t.Errorf("load %s->%s = %.6g, want %.6g", c.a, c.b, got, c.want)
		}
	}
}

// TestMotivatingExampleScenarioC reproduces Figure 1(c): B-D failed — all
// 100 Gbps of both flows crosses C-E, the paper's P2 violation.
func TestMotivatingExampleScenarioC(t *testing.T) {
	fx := motivatingFixture(t, 2)
	if got := fx.load(t, "C", "E", "B-D"); !approx(got, 100) {
		t.Errorf("C->E = %.6g, want 100", got)
	}
	if got := fx.load(t, "B", "C", "B-D"); !approx(got, 80) {
		t.Errorf("B->C = %.6g, want 80", got)
	}
	if got := fx.load(t, "D", "E", "B-D"); !approx(got, 0) {
		t.Errorf("D->E = %.6g, want 0", got)
	}
}

// TestMotivatingExampleScenarioD reproduces Figure 1(d): A-C failed — f1
// detours via B and splits over B-C/B-D.
func TestMotivatingExampleScenarioD(t *testing.T) {
	fx := motivatingFixture(t, 2)
	checks := []struct {
		a, b string
		want float64
	}{
		{"A", "B", 20},
		{"B", "C", 50}, // 40 of f2 + 10 of f1
		{"B", "D", 50},
		{"C", "E", 60}, // f1 10 + f2 40 + p2 10
	}
	for _, c := range checks {
		if got := fx.load(t, c.a, c.b, "A-C"); !approx(got, c.want) {
			t.Errorf("load %s->%s = %.6g, want %.6g", c.a, c.b, got, c.want)
		}
	}
}

// TestMotivatingExampleScenarioE reproduces Figure 1(e): B-C and B-D both
// failed — f2 detours through A and everything crosses A-C and C-E.
func TestMotivatingExampleScenarioE(t *testing.T) {
	fx := motivatingFixture(t, 2)
	failed := []string{"B-C", "B-D"}
	if got := fx.load(t, "B", "A", failed...); !approx(got, 80) {
		t.Errorf("B->A = %.6g, want 80", got)
	}
	if got := fx.load(t, "A", "C", failed...); !approx(got, 100) {
		t.Errorf("A->C = %.6g, want 100", got)
	}
	if got := fx.load(t, "C", "E", failed...); !approx(got, 100) {
		t.Errorf("C->E = %.6g, want 100", got)
	}
}

// TestMotivatingP2SingleFailure checks the paper's headline finding: P2
// ("no link carries >= 95 Gbps") is violated under single link failures,
// and the verifier finds B-D among the witnesses.
func TestMotivatingP2SingleFailure(t *testing.T) {
	fx := motivatingFixture(t, 1)
	rep := mustRun(t, func() (*Report, error) { return fx.ver.Run(nil, nil, 0.95) })
	if len(rep.Violations) == 0 {
		t.Fatal("expected P2 violations under 1-link failures")
	}
	net := fx.spec.Net
	bd, _ := net.FindLink("B", "D")
	ce, _ := net.FindDirLink("C", "E")
	ceOverloaded := false
	for _, v := range rep.Violations {
		if len(v.FailedLinks) > 1 {
			t.Errorf("witness with %d failures exceeds k=1", len(v.FailedLinks))
		}
		if v.Link == ce {
			ceOverloaded = true
		}
	}
	if !ceOverloaded {
		t.Fatal("C->E must be overloadable under a single failure")
	}
	// Enumerating all violating scenarios of C->E's load must include the
	// paper's B-D failure with load 100, and none may exceed k=1.
	tau, _ := fx.ver.LinkLoad(ce)
	foundBD := false
	fx.eng.Manager().ForEachPath(tau, func(a mtbdd.Assignment, val float64) bool {
		if val <= 95+loadEpsilon {
			return true
		}
		links, _ := scenarioWitness(fx.fv, a)
		if len(links) > 1 {
			t.Errorf("violating path with %d failures exceeds k=1", len(links))
		}
		if len(links) == 1 && links[0] == bd.ID {
			foundBD = true
			if !approx(val, 100) {
				t.Errorf("C-E load under B-D failure = %.6g, want 100", val)
			}
		}
		return true
	})
	if !foundBD {
		t.Error("missing the paper's B-D failure -> C-E overload scenario")
	}
}

// TestMotivatingP1 checks P1 (delivered >= 70 Gbps): it holds for k=1 (the
// paper's claim) but fails for k=2 — both parallel E-F links failing cuts F
// off entirely and every route is withdrawn.
func TestMotivatingP1(t *testing.T) {
	dst := netip.MustParsePrefix("100.0.0.0/24")
	for _, tc := range []struct {
		k     int
		holds bool
	}{{1, true}, {2, false}, {3, false}} {
		fx := motivatingFixture(t, tc.k)
		rep := mustRun(t, func() (*Report, error) {
			return fx.ver.Run(nil, []topo.DeliveredBound{{Prefix: dst, Min: 70, Max: math.Inf(1)}}, 0)
		})
		if (len(rep.Violations) == 0) != tc.holds {
			t.Errorf("k=%d: P1 holds=%v, want %v (violations: %+v)",
				tc.k, len(rep.Violations) == 0, tc.holds, rep.Violations)
		}
		if !tc.holds {
			v := rep.Violations[0]
			if len(v.FailedLinks) > tc.k {
				t.Errorf("witness has %d failures > k=%d", len(v.FailedLinks), tc.k)
			}
			if v.Value >= 70 {
				t.Errorf("violation value %.6g not below 70", v.Value)
			}
		}
	}
}

// TestFlowConservation checks that delivered + dropped = 1 for every flow
// under every single and double failure scenario (no traffic leaks).
func TestFlowConservation(t *testing.T) {
	fx := motivatingFixture(t, 2)
	m := fx.eng.Manager()
	n := fx.spec.Net.NumLinks()
	for _, s := range fx.ver.FlowSTFs() {
		if s.InFlight != m.Zero() {
			t.Fatalf("flow %s has in-flight traffic (loop?)", s.Flow)
		}
		check := func(failed []topo.LinkID) {
			assign := fx.fv.Scenario(failed, nil)
			sum := m.Eval(s.Delivered, assign) + m.Eval(s.Dropped, assign)
			if !approx(sum, 1) {
				t.Fatalf("flow %s: delivered+dropped = %.9g under failures %v", s.Flow, sum, failed)
			}
		}
		check(nil)
		for i := 0; i < n; i++ {
			check([]topo.LinkID{topo.LinkID(i)})
			for j := i + 1; j < n; j++ {
				check([]topo.LinkID{topo.LinkID(i), topo.LinkID(j)})
			}
		}
	}
}

// TestLinkLocalEquivalence checks §5.3: on the E->F links, f1 and f2
// distribute identically (both 50/50), so they fall into one equivalence
// class even though their global behavior differs.
func TestLinkLocalEquivalence(t *testing.T) {
	fx := newFixture(t, paperex.Motivating, topo.FailLinks, 1, Options{DisableGlobalEquiv: true})
	net := fx.spec.Net
	var efLink topo.DirLinkID
	found := false
	for i := range net.Links {
		l := net.Link(topo.LinkID(i))
		an, bn := net.Router(l.A).Name, net.Router(l.B).Name
		if an == "E" && bn == "F" {
			efLink = topo.MakeDirLinkID(l.ID, topo.AtoB)
			found = true
			break
		} else if an == "F" && bn == "E" {
			efLink = topo.MakeDirLinkID(l.ID, topo.BtoA)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no E-F link")
	}
	_, stat := fx.ver.LinkLoad(efLink)
	if stat.Flows != 2 {
		t.Fatalf("flows on E->F = %d, want 2", stat.Flows)
	}
	if stat.Classes != 1 {
		t.Errorf("equivalence classes on E->F = %d, want 1 (f1 and f2 are link-local equivalent)", stat.Classes)
	}
	// On A->C only f1 appears (f2 reaches it only under >=2 failures,
	// which the k=1 budget reduces away).
	ac, _ := net.FindDirLink("A", "C")
	_, stat2 := fx.ver.LinkLoad(ac)
	if stat2.Flows != 1 || stat2.Classes != 1 {
		t.Errorf("A->C stats = %+v", stat2)
	}
	// Disabling the reduction must produce classes == flows.
	fx2 := newFixture(t, paperex.Motivating, topo.FailLinks, 1,
		Options{DisableGlobalEquiv: true, DisableLinkLocalEquiv: true})
	_, stat3 := fx2.ver.LinkLoad(efLink)
	if stat3.Classes != stat3.Flows {
		t.Errorf("ablation: classes %d != flows %d", stat3.Classes, stat3.Flows)
	}
}

// TestGlobalEquivalence checks §6's global flow equivalence: two flows
// with the same ingress/destination-class/DSCP are executed once.
func TestGlobalEquivalence(t *testing.T) {
	spec := paperex.Motivating + "\nflow f3 ingress B src 11.0.0.3 dst 100.0.0.9 dscp 5 gbps 5\n"
	fx := newFixture(t, spec, topo.FailLinks, 1, Options{})
	rep := mustRun(t, func() (*Report, error) { return fx.ver.Run(nil, nil, 0) })
	if rep.FlowsTotal != 3 {
		t.Fatalf("FlowsTotal = %d", rep.FlowsTotal)
	}
	if rep.FlowsExecuted != 2 {
		t.Errorf("FlowsExecuted = %d, want 2 (f2 and f3 merge)", rep.FlowsExecuted)
	}
	// The merged execution must carry the summed volume: B->D at no
	// failure carries (80+5)/2 = 42.5.
	if got := fx.load(t, "B", "D"); !approx(got, 42.5) {
		t.Errorf("B->D = %.6g, want 42.5", got)
	}
	// Ablation: all three executed.
	fx2 := newFixture(t, spec, topo.FailLinks, 1, Options{DisableGlobalEquiv: true})
	rep2 := mustRun(t, func() (*Report, error) { return fx2.ver.Run(nil, nil, 0) })
	if rep2.FlowsExecuted != 3 {
		t.Errorf("ablation FlowsExecuted = %d, want 3", rep2.FlowsExecuted)
	}
	if got := fx2.load(t, "B", "D"); !approx(got, 42.5) {
		t.Errorf("ablation B->D = %.6g, want 42.5", got)
	}
}

// TestSTFMatchesPaperFormula checks §4.2's example: f1's STF on C-E is
// 1*x_{A-C} + 0.5*!x_{A-C}*x_{B-C}*x_{B-D} over the three variables the
// paper considers.
func TestSTFMatchesPaperFormula(t *testing.T) {
	fx := newFixture(t, paperex.Motivating, topo.FailLinks, 3, Options{DisableGlobalEquiv: true})
	net := fx.spec.Net
	ce, _ := net.FindDirLink("C", "E")
	var f1 *FlowSTF
	for _, s := range fx.ver.FlowSTFs() {
		if s.Flow.Name == "f1" {
			f1 = s
		}
	}
	if f1 == nil {
		t.Fatal("f1 missing")
	}
	w := linkNode(f1, ce)
	eval := func(failed ...string) float64 {
		return fx.eng.Manager().Eval(w, fx.scenario(t, failed))
	}
	if got := eval(); got != 1 {
		t.Errorf("scenario (a): STF = %v, want 1", got)
	}
	if got := eval("B-C"); got != 1 {
		t.Errorf("scenario (b): STF = %v, want 1", got)
	}
	if got := eval("B-D"); got != 1 {
		t.Errorf("scenario (c): STF = %v, want 1", got)
	}
	if got := eval("A-C"); got != 0.5 {
		t.Errorf("scenario (d): STF = %v, want 0.5", got)
	}
	if got := eval("B-C", "B-D"); got != 1 {
		t.Errorf("scenario (e): STF = %v, want 1", got)
	}
	// The remaining scenario the formula does not cover: A-C plus B-C.
	if got := eval("A-C", "B-C"); got != 0 {
		t.Errorf("A-C+B-C: STF = %v, want 0 (f1 dead-ends via D? no: dropped at A? via B-D it flows through D-E)", got)
	}
}

// TestViolationDescribe covers the human-readable rendering.
func TestViolationDescribe(t *testing.T) {
	fx := motivatingFixture(t, 1)
	rep := mustRun(t, func() (*Report, error) { return fx.ver.Run(nil, nil, 0.95) })
	if len(rep.Violations) == 0 {
		t.Fatal("need violations")
	}
	s := rep.Violations[0].Describe(fx.spec.Net)
	if s == "" || !contains(s, "Gbps") {
		t.Errorf("Describe = %q", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAggressiveGCDoesNotChangeResults forces a managed GC after every
// flow execution and link check (threshold 1) and verifies the verdicts
// and loads are identical to a GC-free run.
func TestAggressiveGCDoesNotChangeResults(t *testing.T) {
	base := newFixture(t, paperex.Motivating, topo.FailLinks, 2, Options{})
	gcd := newFixture(t, paperex.Motivating, topo.FailLinks, 2, Options{GCThreshold: 1})
	repA := mustRun(t, func() (*Report, error) { return base.ver.Run(nil, nil, 0.95) })
	repB := mustRun(t, func() (*Report, error) { return gcd.ver.Run(nil, nil, 0.95) })
	if repA.Holds != repB.Holds || len(repA.Violations) != len(repB.Violations) {
		t.Fatalf("GC changed the verdict: %d vs %d violations", len(repA.Violations), len(repB.Violations))
	}
	if gcd.eng.Manager().GCRuns() == 0 {
		t.Fatal("expected managed GCs to run")
	}
	for _, c := range []struct{ a, b string }{{"C", "E"}, {"B", "D"}, {"D", "C"}} {
		la := base.load(t, c.a, c.b, "B-C")
		lb := gcd.load(t, c.a, c.b, "B-C")
		if !approx(la, lb) {
			t.Errorf("load %s->%s differs after GC: %v vs %v", c.a, c.b, la, lb)
		}
	}
}

// TestSTFRanges checks the value invariants of symbolic traffic
// fractions (paper Table 2): delivered and dropped fractions live in
// [0,1]; link STFs are non-negative and bounded by the maximum number of
// times a flow can re-cross a link (SR detours can legitimately push a
// link STF above 1 — e.g. traffic passing C->D natively and again inside
// a [C,F] tunnel — so 1 is *not* an upper bound there).
func TestSTFRanges(t *testing.T) {
	for _, text := range []string{paperex.Motivating, paperex.SRAnycast, paperex.Misconfig} {
		fx := newFixture(t, text, topo.FailLinks, 2, Options{DisableGlobalEquiv: true})
		m := fx.eng.Manager()
		for _, s := range fx.ver.FlowSTFs() {
			for _, lf := range s.Links {
				lo, hi := m.Range(lf.W)
				if lo < -1e-9 {
					t.Errorf("%s STF on %s negative: %v",
						s.Flow.Name, fx.spec.Net.DirLinkName(lf.Link), lo)
				}
				if hi > 3+1e-9 {
					t.Errorf("%s STF on %s implausibly high: %v (loop?)",
						s.Flow.Name, fx.spec.Net.DirLinkName(lf.Link), hi)
				}
			}
			lo, hi := m.Range(s.Delivered)
			if lo < -1e-9 || hi > 1+1e-9 {
				t.Errorf("%s Delivered out of [0,1]: [%v,%v]", s.Flow.Name, lo, hi)
			}
			lo, hi = m.Range(s.Dropped)
			if lo < -1e-9 || hi > 1+1e-9 {
				t.Errorf("%s Dropped out of [0,1]: [%v,%v]", s.Flow.Name, lo, hi)
			}
		}
	}
}

// TestNoRouteDrops checks a flow to an unrouted destination is fully
// dropped at its ingress.
func TestNoRouteDrops(t *testing.T) {
	spec := paperex.Motivating + "\nflow lost ingress A src 11.0.0.9 dst 203.0.113.1 gbps 7\n"
	fx := newFixture(t, spec, topo.FailLinks, 1, Options{DisableGlobalEquiv: true})
	m := fx.eng.Manager()
	for _, s := range fx.ver.FlowSTFs() {
		if s.Flow.Name != "lost" {
			continue
		}
		if got := m.EvalAllAlive(s.Dropped); got != 1 {
			t.Errorf("unrouted flow dropped fraction = %v, want 1", got)
		}
		if len(s.Links) != 0 {
			t.Errorf("unrouted flow crossed %d links", len(s.Links))
		}
		return
	}
	t.Fatal("lost flow not executed")
}
