package core

import (
	"net/netip"
	"testing"

	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOverloadEpsilonBoundary pins the shared violation threshold from
// violThreshold: a directed link violates an overload limit iff its
// worst-case load exceeds limit - loadEpsilon, with the identical verdict
// on the sequential (primary-manager) path and the parallel shard path,
// with and without the §6 early-termination pruning. The motivating
// example carries exactly 100 Gbps on C->E in its worst 2-failure
// scenario, so limits straddling 100 by ±ε and ±2ε decide every case.
func TestOverloadEpsilonBoundary(t *testing.T) {
	const worst = 100.0
	cases := []struct {
		name     string
		limit    float64
		wantViol bool
	}{
		{"limit-2eps", worst - 2*loadEpsilon, true},
		{"limit-eps", worst - loadEpsilon, true},
		{"limit", worst, true},
		{"limit+eps", worst + loadEpsilon, false},
		{"limit+2eps", worst + 2*loadEpsilon, false},
	}
	for _, pruned := range []bool{true, false} {
		fx := newFixture(t, paperex.Motivating, topo.FailLinks, 2, Options{})
		d, ok := fx.spec.Net.FindDirLink("C", "E")
		if !ok {
			t.Fatal("no link C->E")
		}
		shard := fx.ver.freshShard()
		for _, c := range cases {
			it := Plan{
				Subject: Subject{Link: d},
				Checks:  []LinkCheck{{Max: c.limit, Overload: true, CondVar: -1}},
				pruned:  pruned,
			}
			seqRes, _, seqStat := fx.ver.primaryScan().check(it)
			parRes, _, parStat := shard.check(it)
			seqViols, parViols := violations(it, seqRes[0]), violations(it, parRes[0])
			if got := len(seqViols) > 0; got != c.wantViol {
				t.Errorf("pruned=%v %s: sequential violated=%v, want %v",
					pruned, c.name, got, c.wantViol)
			}
			if len(seqViols) != len(parViols) {
				t.Fatalf("pruned=%v %s: %d sequential violations vs %d parallel",
					pruned, c.name, len(seqViols), len(parViols))
			}
			for i := range seqViols {
				a, b := seqViols[i], parViols[i]
				if a.Link != b.Link || a.Value != b.Value || a.Max != b.Max {
					t.Errorf("pruned=%v %s: violation %d differs: %+v vs %+v",
						pruned, c.name, i, a, b)
				}
			}
			seqStat.Elapsed, parStat.Elapsed = 0, 0
			if seqStat != parStat {
				t.Errorf("pruned=%v %s: stats differ: %+v vs %+v",
					pruned, c.name, seqStat, parStat)
			}
			if c.wantViol && len(seqViols) > 0 && !approx(seqViols[0].Value, worst) {
				t.Errorf("pruned=%v %s: witness load %.9g, want %.9g",
					pruned, c.name, seqViols[0].Value, worst)
			}
		}
	}
}

// TestRangeEpsilonBoundary pins the tolerant semantics of an explicit
// [min, max] bound: a value passes a max bound up to max + loadEpsilon and
// a min bound down to min - loadEpsilon, identically at ±ε and ±2ε.
func TestRangeEpsilonBoundary(t *testing.T) {
	const worst = 100.0
	fx := newFixture(t, paperex.Motivating, topo.FailLinks, 2, Options{})
	d, ok := fx.spec.Net.FindDirLink("C", "E")
	if !ok {
		t.Fatal("no link C->E")
	}
	violated := func(min, max float64) bool {
		rep := mustRun(t, func() (*Report, error) {
			return fx.ver.Run([]topo.LoadBound{{Link: d.Link(), Dir: d.Dir(), DirSpecified: true, Min: min, Max: max}}, nil, 0)
		})
		return len(rep.Violations) > 0
	}
	maxCases := []struct {
		name     string
		max      float64
		wantViol bool
	}{
		{"max-2eps", worst - 2*loadEpsilon, true},
		{"max-eps", worst - loadEpsilon, false}, // worst <= max+eps
		{"max", worst, false},
		{"max+eps", worst + loadEpsilon, false},
		{"max+2eps", worst + 2*loadEpsilon, false},
	}
	for _, c := range maxCases {
		if viol := violated(0, c.max); viol != c.wantViol {
			t.Errorf("%s: violated=%v, want %v", c.name, viol, c.wantViol)
		}
	}
	// The minimum load on C->E over <=2 failures: failing C-E itself drops
	// it to 0, so any positive min violates up to the epsilon tolerance.
	minCases := []struct {
		name     string
		min      float64
		wantViol bool
	}{
		{"min-2eps", -2 * loadEpsilon, false},
		{"min-eps", -loadEpsilon, false},
		{"min", 0, false},
		{"min+eps", loadEpsilon, false}, // 0 >= min-eps still passes
		{"min+2eps", 2 * loadEpsilon, true},
	}
	for _, c := range minCases {
		if viol := violated(c.min, worst+1); viol != c.wantViol {
			t.Errorf("%s: violated=%v, want %v", c.name, viol, c.wantViol)
		}
	}
}

// TestMarkUncheckedDedupOrder checks the map-backed deduplication of
// unchecked links and prefixes: first-seen order is preserved and repeats
// are dropped, including repeats of entries present before the lazy set
// was seeded.
func TestMarkUncheckedDedupOrder(t *testing.T) {
	rep := &Report{}
	a := topo.MakeDirLinkID(3, topo.AtoB)
	b := topo.MakeDirLinkID(1, topo.BtoA)
	c := topo.MakeDirLinkID(2, topo.AtoB)
	// Pre-existing entry, as a partial report would carry.
	rep.Unchecked = append(rep.Unchecked, a)
	rep.markUnchecked(b)
	rep.markUnchecked(a) // dup of the pre-seeded entry
	rep.markUnchecked(c)
	rep.markUnchecked(b) // dup of a map-tracked entry
	want := []topo.DirLinkID{a, b, c}
	if len(rep.Unchecked) != len(want) {
		t.Fatalf("Unchecked = %v, want %v", rep.Unchecked, want)
	}
	for i := range want {
		if rep.Unchecked[i] != want[i] {
			t.Fatalf("Unchecked = %v, want %v", rep.Unchecked, want)
		}
	}

	pfxs := []string{"10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"}
	rep2 := &Report{}
	rep2.UncheckedDelivered = append(rep2.UncheckedDelivered, mustPrefix(t, pfxs[0]))
	rep2.markUncheckedDelivered(mustPrefix(t, pfxs[1]))
	rep2.markUncheckedDelivered(mustPrefix(t, pfxs[0]))
	rep2.markUncheckedDelivered(mustPrefix(t, pfxs[2]))
	rep2.markUncheckedDelivered(mustPrefix(t, pfxs[1]))
	if len(rep2.UncheckedDelivered) != 3 {
		t.Fatalf("UncheckedDelivered = %v, want %v", rep2.UncheckedDelivered, pfxs)
	}
	for i := range pfxs {
		if rep2.UncheckedDelivered[i] != mustPrefix(t, pfxs[i]) {
			t.Fatalf("UncheckedDelivered = %v, want %v", rep2.UncheckedDelivered, pfxs)
		}
	}
}
