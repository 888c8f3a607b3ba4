package core

import (
	"testing"

	"github.com/yu-verify/yu/internal/topo"
)

// TestCheckScratchAllocs: on a warm manager the pruned check's walks
// allocate nothing but their results. Range answers from the manager's
// memo (its lossy table emptied first, so the memo is what answers),
// PrefixMaxK allocates its maxima, SumMulK at most its result slots, and
// linkClasses the classes it hands out, grouping through the verifier's
// map.
func TestCheckScratchAllocs(t *testing.T) {
	_, v := benchShapes[1].verifier(t, Options{})
	m, k := v.e.m, v.e.fv.K
	var l topo.DirLinkID
	for d, refs := range v.linkIdx {
		if len(refs) > len(v.linkIdx[l]) {
			l = topo.DirLinkID(d)
		}
	}
	var stat LinkCheckStat
	classes := v.linkClasses(l, &stat)
	if len(classes) < 2 {
		t.Fatalf("the busiest link has %d classes", len(classes))
	}
	vols, ws := splitClasses(classes)
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Range", 0, func() {
			m.ClearCaches()
			for _, w := range ws {
				m.Range(w)
			}
		}},
		{"PrefixMaxK", 1, func() { m.PrefixMaxK(vols, ws, k) }},
		{"SumMulK", 1, func() { m.SumMulK(vols, ws, k) }},
		{"linkClasses", 1, func() { v.linkClasses(l, &stat) }},
	} {
		tc.f() // warm
		if got := testing.AllocsPerRun(20, tc.f); got > tc.max {
			t.Errorf("%s over %d classes: %v allocations a call, want at most %v", tc.name, len(ws), got, tc.max)
		}
	}
}
