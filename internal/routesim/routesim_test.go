package routesim

import (
	"errors"
	"net/netip"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
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

// motivating builds the Figure 1 fixture with the given k.
func motivating(t testing.TB, k int) (*config.Spec, *Result) {
	t.Helper()
	spec := mustSpec(t, paperex.MotivatingSpec)
	m := mtbdd.New()
	fv := NewFailVars(m, spec.Net, topo.FailLinks, k)
	res, err := Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

func mustRouter(t testing.TB, n *topo.Network, name string) *topo.Router {
	t.Helper()
	r, ok := n.RouterByName(name)
	if !ok {
		t.Fatalf("router %s missing", name)
	}
	return r
}

func evalGuard(fv *FailVars, g *mtbdd.Node, failed ...topo.LinkID) bool {
	return fv.M.Eval(g, fv.Scenario(failed, nil)) != 0
}

func linkID(t testing.TB, n *topo.Network, a, b string) topo.LinkID {
	t.Helper()
	l, ok := n.FindLink(a, b)
	if !ok {
		t.Fatalf("link %s-%s missing", a, b)
	}
	return l.ID
}

func TestFailVars(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	m := mtbdd.New()
	fv := NewFailVars(m, spec.Net, topo.FailBoth, 2)
	if fv.NumVars() != spec.Net.NumLinks()+spec.Net.NumRouters() {
		t.Fatalf("NumVars = %d", fv.NumVars())
	}
	ab := linkID(t, spec.Net, "A", "B")
	v := fv.LinkVar(ab)
	if v < 0 {
		t.Fatal("link var missing")
	}
	lid, _, isLink := fv.VarElement(v)
	if !isLink || lid != ab {
		t.Error("VarElement roundtrip failed")
	}
	a := mustRouter(t, spec.Net, "A")
	rv := fv.RouterVar(a.ID)
	if rv < 0 {
		t.Fatal("router var missing")
	}
	if _, rid, isLink := fv.VarElement(rv); isLink || rid != a.ID {
		t.Error("router VarElement roundtrip failed")
	}
	// Scenario: failing A-B must flip exactly that variable.
	assign := fv.Scenario([]topo.LinkID{ab}, []topo.RouterID{a.ID})
	if assign[v] || assign[rv] {
		t.Error("Scenario must mark failed elements")
	}
	// EdgeUp of the A-B edge must be false when the link fails.
	d, _ := spec.Net.FindDirLink("A", "B")
	up := fv.EdgeUp(spec.Net.Edge(d))
	if m.Eval(up, assign) != 0 {
		t.Error("EdgeUp must fail with the link down")
	}
	if m.Eval(up, fv.Scenario(nil, nil)) != 1 {
		t.Error("EdgeUp must hold with everything alive")
	}
}

func TestFailVarsLinkOnlyMode(t *testing.T) {
	spec := mustSpec(t, paperex.MotivatingSpec)
	fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 1)
	if fv.NumVars() != spec.Net.NumLinks() {
		t.Fatalf("NumVars = %d, want %d", fv.NumVars(), spec.Net.NumLinks())
	}
	a := mustRouter(t, spec.Net, "A")
	if fv.RouterVar(a.ID) != -1 {
		t.Error("router vars must not exist in links mode")
	}
	if fv.RouterUp(a.ID) != fv.M.One() {
		t.Error("unfailable router must be always up")
	}
}

func TestIGPMotivatingShortestPaths(t *testing.T) {
	spec, res := motivating(t, 2)
	net := spec.Net
	igp := res.IGP
	c := mustRouter(t, net, "C")
	d := mustRouter(t, net, "D")
	e := mustRouter(t, net, "E")
	f := mustRouter(t, net, "F")

	// D -> E: direct link, cost 10000, plus backup D-C-E at 20000.
	routes := igp.Routes(d.ID, e.ID)
	if len(routes) < 2 {
		t.Fatalf("D->E candidates = %d, want >= 2", len(routes))
	}
	if routes[0].Cost != 10000 {
		t.Errorf("best D->E cost = %d", routes[0].Cost)
	}
	de, _ := net.FindDirLink("D", "E")
	if routes[0].Out != de {
		t.Errorf("best D->E out = %s", net.DirLinkName(routes[0].Out))
	}

	// E -> F: two parallel links, both cost 10000 (ECMP).
	ef := igp.Routes(e.ID, f.ID)
	ecmp := 0
	for _, r := range ef {
		if r.Cost == 10000 {
			ecmp++
		}
	}
	if ecmp != 2 {
		t.Errorf("E->F equal-cost candidates = %d, want 2 (parallel links)", ecmp)
	}

	// C -> F best: via C-E (20000), not via D (30000).
	cf := igp.Routes(c.ID, f.ID)
	if len(cf) == 0 {
		t.Fatal("C->F missing")
	}
	ce, _ := net.FindDirLink("C", "E")
	if cf[0].Cost != 20000 || cf[0].Out != ce {
		t.Errorf("best C->F = cost %d via %s", cf[0].Cost, net.DirLinkName(cf[0].Out))
	}

	// No IGP routes across AS boundaries.
	a := mustRouter(t, net, "A")
	if igp.Routes(a.ID, f.ID) != nil {
		t.Error("IGP must not cross AS boundaries")
	}
	if igp.Reach(a.ID, f.ID) != res.Vars.M.Zero() {
		t.Error("cross-AS reach must be zero")
	}
}

func TestIGPReachUnderFailures(t *testing.T) {
	spec, res := motivating(t, 3)
	net, fv := spec.Net, res.Vars
	d := mustRouter(t, net, "D")
	e := mustRouter(t, net, "E")
	reach := res.IGP.Reach(d.ID, e.ID)

	dc := linkID(t, net, "C", "D") // note: link stored as C-D
	de := linkID(t, net, "D", "E")
	ce := linkID(t, net, "C", "E")

	if !evalGuard(fv, reach) {
		t.Error("D reaches E with no failures")
	}
	if !evalGuard(fv, reach, de) {
		t.Error("D must still reach E via C when D-E fails")
	}
	if evalGuard(fv, reach, de, dc) {
		t.Error("D must not reach E when both D-E and C-D fail")
	}
	if evalGuard(fv, reach, de, ce) {
		t.Error("D must not reach E when D-E and C-E fail")
	}
}

func TestBGPMotivatingRIBs(t *testing.T) {
	spec, res := motivating(t, 2)
	net, fv := spec.Net, res.Vars
	dst := netip.MustParsePrefix("100.0.0.0/24")

	// Router A (Figure 3): two candidates; preferred via C (AS path
	// [300]), backup via B (AS path [200,300]) guarded by x_{B-C} v x_{B-D}.
	a := mustRouter(t, net, "A")
	cands := res.BGP.RIBs[a.ID][dst]
	if len(cands) != 2 {
		t.Fatalf("A has %d candidates, want 2", len(cands))
	}
	best, backup := cands[0], cands[1]
	if len(best.ASPath) != 1 || best.ASPath[0] != 300 {
		t.Errorf("A best AS path = %v", best.ASPath)
	}
	if len(backup.ASPath) != 2 || backup.ASPath[0] != 200 || backup.ASPath[1] != 300 {
		t.Errorf("A backup AS path = %v", backup.ASPath)
	}
	if !best.Direct || best.NextHop != netip.MustParseAddr("1.3.0.2") {
		t.Errorf("A best next hop = %v direct=%v", best.NextHop, best.Direct)
	}
	ac := linkID(t, net, "A", "C")
	bc := linkID(t, net, "B", "C")
	bd := linkID(t, net, "B", "D")
	ab := linkID(t, net, "A", "B")
	if !evalGuard(fv, best.Guard) || evalGuard(fv, best.Guard, ac) {
		t.Error("best guard must be exactly 'A-C alive'")
	}
	// Backup guard: (B-C v B-D) ^ A-B (paper's m4 plus the session link).
	if !evalGuard(fv, backup.Guard) {
		t.Error("backup present with no failures")
	}
	if !evalGuard(fv, backup.Guard, bc) || !evalGuard(fv, backup.Guard, bd) {
		t.Error("backup must survive a single B-C or B-D failure")
	}
	if evalGuard(fv, backup.Guard, bc, bd) {
		t.Error("backup must vanish when both B-C and B-D fail")
	}
	if evalGuard(fv, backup.Guard, ab) {
		t.Error("backup must vanish when the A-B session link fails")
	}

	// Router B: two equally preferred candidates via C and via D (ECMP).
	b := mustRouter(t, net, "B")
	bCands := res.BGP.RIBs[b.ID][dst]
	ecmp := 0
	for _, cand := range bCands {
		if len(cand.ASPath) == 1 && cand.ASPath[0] == 300 {
			ecmp++
		}
	}
	if ecmp != 2 {
		t.Fatalf("B has %d AS-300 candidates, want 2 (ECMP over C and D)", ecmp)
	}
	if !bCands[0].SameRank(bCands[1]) {
		t.Error("B's two candidates must tie in preference")
	}

	// Router D (iBGP): next hop is F's loopback 10.0.0.6, indirect.
	d := mustRouter(t, net, "D")
	f := mustRouter(t, net, "F")
	dCands := res.BGP.RIBs[d.ID][dst]
	if len(dCands) == 0 {
		t.Fatal("D has no route")
	}
	if dCands[0].Direct || dCands[0].NextHop != f.Loopback || dCands[0].NextHopRouter != f.ID {
		t.Errorf("D candidate = %+v", dCands[0])
	}

	// Router F: delivers locally.
	fCands := res.BGP.RIBs[f.ID][dst]
	if len(fCands) == 0 || !fCands[0].Deliver {
		t.Error("F must have a local Deliver candidate")
	}
	if !res.BGP.Converged {
		t.Error("BGP must converge on the motivating example")
	}
}

func TestSRGuardsMotivating(t *testing.T) {
	spec, res := motivating(t, 3)
	net, fv := spec.Net, res.Vars
	d := mustRouter(t, net, "D")
	pols := res.SR[d.ID]
	if len(pols) != 1 {
		t.Fatalf("D SR policies = %d", len(pols))
	}
	pol := pols[0]
	if pol.MatchDSCP != 5 {
		t.Errorf("MatchDSCP = %d", pol.MatchDSCP)
	}
	if !pol.Matches(netip.MustParseAddr("10.0.0.6"), 5) || pol.Matches(netip.MustParseAddr("10.0.0.6"), 0) {
		t.Error("policy match broken")
	}
	if len(pol.Paths) != 2 {
		t.Fatalf("paths = %d", len(pol.Paths))
	}
	p1, p2 := pol.Paths[0], pol.Paths[1]
	if p1.Weight != 75 || p2.Weight != 25 {
		t.Errorf("weights = %d, %d", p1.Weight, p2.Weight)
	}

	de := linkID(t, net, "D", "E")
	cd := linkID(t, net, "C", "D")
	ce := linkID(t, net, "C", "E")
	ef1 := topo.LinkID(-1)
	var efLinks []topo.LinkID
	for i := range net.Links {
		l := net.Link(topo.LinkID(i))
		an, bn := net.Router(l.A).Name, net.Router(l.B).Name
		if (an == "E" && bn == "F") || (an == "F" && bn == "E") {
			efLinks = append(efLinks, l.ID)
		}
	}
	if len(efLinks) != 2 {
		t.Fatalf("parallel E-F links = %d", len(efLinks))
	}
	ef1 = efLinks[0]
	ef2 := efLinks[1]

	// p1 = [E,F]: guard = reach(D,E) ^ reach(E,F).
	if !evalGuard(fv, p1.Guard) {
		t.Error("p1 up with no failures")
	}
	if !evalGuard(fv, p1.Guard, de) {
		t.Error("p1 must survive D-E failure (reach via C)")
	}
	if evalGuard(fv, p1.Guard, ef1, ef2) {
		t.Error("p1 must break when both E-F links fail")
	}
	if evalGuard(fv, p1.Guard, de, cd, ce) {
		t.Error("p1 must break when D is cut from E")
	}
	// p2 = [C,F]: guard = reach(D,C) ^ reach(C,F).
	if !evalGuard(fv, p2.Guard) {
		t.Error("p2 up with no failures")
	}
	if evalGuard(fv, p2.Guard, ef1, ef2) {
		t.Error("p2 must break when both E-F links fail (C reaches F via E)")
	}
}

func TestStaticsAndRedistribution(t *testing.T) {
	spec := mustSpec(t, paperex.MisconfigSpec)
	m := mtbdd.New()
	fv := NewFailVars(m, spec.Net, topo.FailLinks, spec.K)
	res, err := Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	net := spec.Net
	d1 := mustRouter(t, net, "D1")
	m1 := mustRouter(t, net, "M1")

	// D1's discard static must be present unconditionally (links mode).
	sts := res.Statics[d1.ID]
	if len(sts) != 1 || !sts[0].Discard {
		t.Fatalf("D1 statics = %+v", sts)
	}
	if sts[0].Guard != m.One() {
		t.Errorf("discard static guard = %s", m.String(sts[0].Guard))
	}

	agg := netip.MustParsePrefix("10.0.0.0/8")
	svc := netip.MustParsePrefix("10.1.0.0/26")

	// M1 must have the aggregate from D1 but never the service prefix.
	if len(res.BGP.RIBs[m1.ID][agg]) == 0 {
		t.Error("M1 missing the 10/8 aggregate")
	}
	if len(res.BGP.RIBs[m1.ID][svc]) != 0 {
		t.Error("export-deny violated: M1 learned 10.1.0.0/26")
	}
	// D1 must have the service prefix via the WAN.
	if len(res.BGP.RIBs[d1.ID][svc]) == 0 {
		t.Error("D1 missing 10.1.0.0/26")
	}
}

func TestBGPLocalPref(t *testing.T) {
	// A prefers the longer AS path when local-pref says so.
	spec, err := config.ParseSpecString(`
router A as 1 loopback 10.0.0.1
router B as 2 loopback 10.0.0.2
router C as 3 loopback 10.0.0.3
router D as 4 loopback 10.0.0.4
link A B addr-a 1.0.0.1 addr-b 1.0.0.2
link A C addr-a 2.0.0.1 addr-b 2.0.0.2
link B D
link C D
auto-bgp-mesh
config D
  network 9.0.0.0/24
config A
  neighbor 1.0.0.2 remote-as 2 local-pref 200
`)
	if err != nil {
		t.Fatal(err)
	}
	fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 2)
	res, err := Run(fv, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	a := mustRouter(t, spec.Net, "A")
	cands := res.BGP.RIBs[a.ID][netip.MustParsePrefix("9.0.0.0/24")]
	if len(cands) != 2 {
		t.Fatalf("A candidates = %d", len(cands))
	}
	if cands[0].LocalPref != 200 {
		t.Errorf("best local-pref = %d, want 200 (policy wins over path length)", cands[0].LocalPref)
	}
}

func TestKReduceAblationStillSound(t *testing.T) {
	// K < 0 disables reduction; guards must still evaluate identically on
	// small-failure scenarios.
	spec := mustSpec(t, paperex.MotivatingSpec)
	fvOn := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 2)
	resOn, err := Run(fvOn, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	fvOff := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, -1)
	resOff, err := Run(fvOff, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParsePrefix("100.0.0.0/24")
	for ri := 0; ri < spec.Net.NumRouters(); ri++ {
		on := resOn.BGP.RIBs[ri][dst]
		off := resOff.BGP.RIBs[ri][dst]
		// Compare per-scenario best-route presence for single failures.
		for li := 0; li < spec.Net.NumLinks(); li++ {
			failed := []topo.LinkID{topo.LinkID(li)}
			anyOn := false
			for _, c := range on {
				if evalGuard(fvOn, c.Guard, failed...) {
					anyOn = true
				}
			}
			anyOff := false
			for _, c := range off {
				if evalGuard(fvOff, c.Guard, failed...) {
					anyOff = true
				}
			}
			if anyOn != anyOff {
				t.Fatalf("router %d link %d: reduced/unreduced presence differ", ri, li)
			}
		}
	}
}

func TestNoFailCost(t *testing.T) {
	spec, res := motivating(t, 2)
	net := spec.Net
	d := mustRouter(t, net, "D")
	e := mustRouter(t, net, "E")
	f := mustRouter(t, net, "F")
	a := mustRouter(t, net, "A")
	if c, ok := res.IGP.NoFailCost(d.ID, e.ID); !ok || c != 10000 {
		t.Errorf("NoFailCost(D,E) = %d,%v want 10000,true", c, ok)
	}
	if c, ok := res.IGP.NoFailCost(d.ID, f.ID); !ok || c != 20000 {
		t.Errorf("NoFailCost(D,F) = %d,%v want 20000,true", c, ok)
	}
	if c, ok := res.IGP.NoFailCost(d.ID, d.ID); !ok || c != 0 {
		t.Errorf("NoFailCost(D,D) = %d,%v want 0,true", c, ok)
	}
	if _, ok := res.IGP.NoFailCost(a.ID, f.ID); ok {
		t.Error("cross-AS NoFailCost must be false")
	}
}

func TestBGPConvergenceFlag(t *testing.T) {
	_, res := motivating(t, 1)
	if !res.BGP.Converged || res.BGP.Rounds == 0 {
		t.Errorf("BGP: converged=%v rounds=%d", res.BGP.Converged, res.BGP.Rounds)
	}
}

func TestIGPGuardNodes(t *testing.T) {
	_, res := motivating(t, 1)
	nodes := res.IGP.GuardNodes()
	if len(nodes) == 0 {
		t.Fatal("GuardNodes empty")
	}
	for _, n := range nodes {
		if n == nil {
			t.Fatal("nil guard node")
		}
	}
}

// disagree loads the checked-in DISAGREE gadget: a BGP policy dispute
// with no stable state.
func disagree(t testing.TB) *config.Spec {
	t.Helper()
	text, err := os.ReadFile("../../testdata/notconverged/disagree.yu")
	if err != nil {
		t.Fatal(err)
	}
	return mustSpec(t, func() (*config.Spec, error) { return config.ParseSpecString(string(text)) })
}

func TestNotConvergedDisagree(t *testing.T) {
	spec := disagree(t)
	for _, k := range []int{-1, 0, 1} {
		fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, k)
		res, err := Run(fv, spec.Configs)
		var nc *ErrNotConverged
		if res != nil || !errors.As(err, &nc) {
			t.Fatalf("k=%d: Run = %v, %v; want no result and *ErrNotConverged", k, res, err)
		}
		if nc.Rounds != spec.Net.RoundBound() {
			t.Errorf("k=%d: stopped after %d rounds, want the budget %d", k, nc.Rounds, spec.Net.RoundBound())
		}
		if want := []string{"A 100.9.0.0/24", "B 100.9.0.0/24"}; !slices.Equal(nc.Changing, want) {
			t.Errorf("k=%d: still changing %q, want %q", k, nc.Changing, want)
		}
		if msg := err.Error(); !strings.Contains(msg, "did not converge in 10 rounds") || strings.Contains(msg, "\n") {
			t.Errorf("k=%d: reason %q is not the one-line verdict", k, msg)
		}

		// The staged drivers (compose, the benchmark) reach the same error
		// through FinishRun.
		igp := ComputeIGP(fv)
		bgp := ComputeBGP(fv, spec.Configs, igp)
		if bgp.Converged {
			t.Fatalf("k=%d: ComputeBGP claims convergence after %d rounds", k, bgp.Rounds)
		}
		if _, err := FinishRun(fv, spec.Configs, igp, bgp); !errors.As(err, &nc) {
			t.Errorf("k=%d: FinishRun on an unconverged BGP state: %v", k, err)
		}
	}
}
