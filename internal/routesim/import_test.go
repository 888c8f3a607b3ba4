package routesim

import (
	"testing"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// TestImportIntoEquivalence clones the motivating-example result into a
// fresh manager and checks every guard evaluates identically across a
// sweep of failure scenarios, while sharing no nodes with the source.
func TestImportIntoEquivalence(t *testing.T) {
	spec, res := motivating(t, 2)

	m2 := mtbdd.New()
	fv2 := NewFailVars(m2, spec.Net, topo.FailLinks, 2)
	clone := res.NewImportBase().ImportInto(fv2)

	if clone.Vars != fv2 {
		t.Fatal("clone not bound to destination FailVars")
	}

	// Scenarios: no failure, each single link, and a few pairs.
	var scenarios [][]topo.LinkID
	scenarios = append(scenarios, nil)
	for l := 0; l < spec.Net.NumLinks(); l++ {
		scenarios = append(scenarios, []topo.LinkID{topo.LinkID(l)})
		for l2 := l + 1; l2 < spec.Net.NumLinks(); l2++ {
			scenarios = append(scenarios, []topo.LinkID{topo.LinkID(l), topo.LinkID(l2)})
		}
	}
	check := func(what string, a, b *mtbdd.Node) {
		t.Helper()
		if a == nil || b == nil {
			if a != b {
				t.Fatalf("%s: nil mismatch", what)
			}
			return
		}
		for _, sc := range scenarios {
			va := res.Vars.M.Eval(a, res.Vars.Scenario(sc, nil))
			vb := m2.Eval(b, fv2.Scenario(sc, nil))
			if va != vb {
				t.Fatalf("%s: eval differs under failures %v: %v vs %v", what, sc, va, vb)
			}
		}
	}

	for r := 0; r < spec.Net.NumRouters(); r++ {
		rid := topo.RouterID(r)
		for dest, routes := range res.IGP.routes[r] {
			cr := clone.IGP.routes[r][dest]
			if len(cr) != len(routes) {
				t.Fatalf("router %d dest %d: %d IGP routes vs %d", r, dest, len(routes), len(cr))
			}
			for i, rt := range routes {
				if cr[i].Out != rt.Out || cr[i].Cost != rt.Cost {
					t.Fatalf("router %d dest %d route %d differs", r, dest, i)
				}
				check("igp route guard", rt.Guard, cr[i].Guard)
			}
		}
		for dest, g := range res.IGP.reach[r] {
			check("igp reach guard", g, clone.IGP.reach[r][dest])
		}
		if res.BGP.RIBs[r] != nil {
			for pfx, cands := range res.BGP.RIBs[r] {
				cc := clone.BGP.RIBs[r][pfx]
				if len(cc) != len(cands) {
					t.Fatalf("router %d prefix %v: %d candidates vs %d", r, pfx, len(cands), len(cc))
				}
				for i, c := range cands {
					if cc[i] == c {
						t.Fatalf("router %d prefix %v cand %d: shared BGPCand pointer", r, pfx, i)
					}
					check("bgp guard", c.Guard, cc[i].Guard)
				}
			}
		}
		for i, p := range res.SR[r] {
			cp := clone.SR[r][i]
			if cp.Endpoint != p.Endpoint || cp.MatchDSCP != p.MatchDSCP || len(cp.Paths) != len(p.Paths) {
				t.Fatalf("router %d SR policy %d differs", r, i)
			}
			for j, path := range p.Paths {
				check("sr path guard", path.Guard, cp.Paths[j].Guard)
			}
		}
		for i, st := range res.Statics[r] {
			check("static guard", st.Guard, clone.Statics[r][i].Guard)
		}
		_ = rid
	}

	// Disjointness: non-terminal clone guards must live in m2, not in the
	// source manager. Terminals 0/1 hash-cons to each manager separately,
	// so pointer inequality holds for any non-constant guard.
	for r := range res.IGP.reach {
		for dest, g := range res.IGP.reach[r] {
			cg := clone.IGP.reach[r][dest]
			if !g.IsTerminal() && g == cg {
				t.Fatalf("router %d dest %d: reach guard shared between managers", r, dest)
			}
		}
	}
}

// TestImportIntoRejectsMismatch checks the guard rails.
func TestImportIntoRejectsMismatch(t *testing.T) {
	spec, res := motivating(t, 2)

	m2 := mtbdd.New()
	fv2 := NewFailVars(m2, spec.Net, topo.FailLinks, 1) // wrong budget
	defer func() {
		if recover() == nil {
			t.Fatal("ImportInto accepted a FailVars with a different budget")
		}
	}()
	res.NewImportBase().ImportInto(fv2)
}
