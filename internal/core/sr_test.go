package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/topo"
)

// TestStackKeyCollisionFree checks that interning label stacks is injective:
// the paper's matrix M is addressed by (link, stack), so two distinct label
// stacks must never share an id — e.g. {1,23} vs {12,3}, which a naive digit
// concatenation of the key would conflate — and that ties between stacks
// break in the order of the decimal keys the wavefront maps were sorted by
// ("10," before "9,"), which the float results depend on.
func TestStackKeyCollisionFree(t *testing.T) {
	tab := newStackTab()
	if tab.intern(stack{}) != 0 || tab.intern(nil) != 0 {
		t.Errorf("the empty stack must intern to 0")
	}
	pairs := [][2]stack{
		{{1, 23}, {12, 3}},
		{{1, 2, 3}, {12, 3}},
		{{1, 2, 3}, {1, 23}},
		{{0}, {}},
		{{21, 1}, {2, 11}},
	}
	for _, p := range pairs {
		if tab.intern(p[0]) == tab.intern(p[1]) {
			t.Errorf("stacks %v and %v collide on id %d", p[0], p[1], tab.intern(p[0]))
		}
	}
	// Exhaustive sweep: every stack of length <= 3 over 26 routers interns
	// uniquely and stably.
	seen := make(map[stackID]string)
	var all []stack
	var walk func(s stack, depth int)
	walk = func(s stack, depth int) {
		id := tab.intern(s)
		repr := fmt.Sprintf("%v", s)
		if prev, ok := seen[id]; ok && prev != repr {
			t.Fatalf("stacks %s and %s collide on id %d", prev, repr, id)
		}
		seen[id] = repr
		if len(s) <= 2 {
			all = append(all, slices.Clone(s))
		}
		if depth == 0 {
			return
		}
		for r := topo.RouterID(0); r < 26; r++ {
			walk(append(s, r), depth-1)
		}
	}
	walk(stack{}, 3)
	for _, a := range all {
		for _, b := range all {
			want := strings.Compare(refKey(a), refKey(b))
			if got := tab.compare(tab.intern(a), tab.intern(b)); got != want {
				t.Fatalf("compare(%v, %v) = %d, the decimal keys order them %d", a, b, got, want)
			}
		}
	}
}

// srTriangle is a three-router iBGP triangle with the destination prefix
// at C: A-C is the cost-1 shortest path from A, the detour via B costs 2.
// The template slot takes extra config lines (SR policies under test).
const srTriangle = `
router A as 1 loopback 10.0.0.1
router B as 1 loopback 10.0.0.2
router C as 1 loopback 10.0.0.3
link A B cost 1 capacity 100
link B C cost 1 capacity 100
link A C cost 1 capacity 100
auto-bgp-mesh
config C
  network 100.0.0.0/24
%s
flow f ingress A src 11.0.0.1 dst 100.0.0.5 gbps 8
`

func triangleFixture(t *testing.T, extra string) *fixture {
	t.Helper()
	return newFixture(t, fmt.Sprintf(srTriangle, extra), topo.FailLinks, 1, Options{})
}

func (fx *fixture) deliveredNoFail(t *testing.T) float64 {
	t.Helper()
	total := 0.0
	for _, s := range fx.ver.FlowSTFs() {
		total += fx.eng.Manager().EvalAllAlive(s.Delivered)
	}
	return total
}

// TestSRStackExhaustionContinuesAsIP steers the flow through B with a
// single-segment path: the stack exhausts at B (it pops its own segment)
// and the traffic must continue as plain IP traffic from B — taking the
// detour A->B->C instead of the IGP-shortest A->C.
func TestSRStackExhaustionContinuesAsIP(t *testing.T) {
	fx := triangleFixture(t, "config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.2 weight 1\n")
	for _, c := range []struct {
		a, b string
		want float64
	}{{"A", "B", 8}, {"B", "C", 8}, {"A", "C", 0}} {
		if got := fx.load(t, c.a, c.b); !approx(got, c.want) {
			t.Errorf("load %s->%s = %.6g, want %.6g", c.a, c.b, got, c.want)
		}
	}
	if got := fx.deliveredNoFail(t); !approx(got, 1) {
		t.Errorf("delivered fraction = %.6g, want 1", got)
	}
	// Control: without the policy the flow takes the direct link.
	ctl := triangleFixture(t, "")
	if got := ctl.load(t, "A", "C"); !approx(got, 8) {
		t.Errorf("control load A->C = %.6g, want 8", got)
	}
}

// TestSRLeadingSelfSegmentPop checks emitSR pops leading self-segments:
// a path that names the steering router first must behave exactly like
// the same path without it.
func TestSRLeadingSelfSegmentPop(t *testing.T) {
	withSelf := triangleFixture(t,
		"config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.1 10.0.0.2 10.0.0.3 weight 1\n")
	without := triangleFixture(t,
		"config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.2 10.0.0.3 weight 1\n")
	for _, c := range [][2]string{{"A", "B"}, {"B", "A"}, {"B", "C"}, {"A", "C"}, {"C", "A"}} {
		a, b := withSelf.load(t, c[0], c[1]), without.load(t, c[0], c[1])
		if !approx(a, b) {
			t.Errorf("load %s->%s: with self-segment %.6g, without %.6g", c[0], c[1], a, b)
		}
	}
	if got := withSelf.load(t, "A", "B"); !approx(got, 8) {
		t.Errorf("load A->B = %.6g, want 8 (steered via B)", got)
	}
	if got := withSelf.deliveredNoFail(t); !approx(got, 1) {
		t.Errorf("delivered fraction = %.6g, want 1", got)
	}
}

// TestSRSelfPathChainGuard feeds the pathological policy whose only path
// is the steering router itself: every pop lands back in IP lookup on
// the same router and re-matches the policy. The maxSRChain guard must
// cut the recursion (no hang, no stack overflow) and the traffic must
// then resolve natively over the IGP — fully delivered, nothing stuck.
func TestSRSelfPathChainGuard(t *testing.T) {
	fx := triangleFixture(t, "config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.1 weight 1\n")
	if got := fx.load(t, "A", "C"); !approx(got, 8) {
		t.Errorf("load A->C = %.6g, want 8 (native IGP after chain guard)", got)
	}
	if got := fx.deliveredNoFail(t); !approx(got, 1) {
		t.Errorf("delivered fraction = %.6g, want 1", got)
	}
	m := fx.eng.Manager()
	for _, s := range fx.ver.FlowSTFs() {
		if s.InFlight != m.Zero() {
			t.Errorf("flow %s left in-flight traffic behind the chain guard", s.Flow)
		}
	}
}

// TestSRWeightedSplitWithGuards checks the weighted-ECMP renormalization
// over SR paths: two paths weighted 3:1 split the flow 6:2, and when the
// detour path's first hop fails, its share renormalizes onto the
// survivor instead of being dropped.
func TestSRWeightedSplitWithGuards(t *testing.T) {
	fx := triangleFixture(t,
		"config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.3 weight 3\n    path 10.0.0.2 10.0.0.3 weight 1\n")
	if got := fx.load(t, "A", "C"); !approx(got, 6) {
		t.Errorf("no-failure load A->C = %.6g, want 6 (weight 3 of 4)", got)
	}
	if got := fx.load(t, "A", "B"); !approx(got, 2) {
		t.Errorf("no-failure load A->B = %.6g, want 2 (weight 1 of 4)", got)
	}
	// A-B down: the [B,C] path is invalid, all 8 renormalize onto [C].
	if got := fx.load(t, "A", "C", "A-B"); !approx(got, 8) {
		t.Errorf("load A->C under A-B failure = %.6g, want 8", got)
	}
}
