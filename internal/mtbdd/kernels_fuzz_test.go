package mtbdd

import (
	"math/rand"
	"testing"
)

// FuzzKernels is the fused-kernel differential fuzz target: for a
// fuzzer-chosen operand shape and budget, every fused kernel must return
// the exact canonical node of KReduce over the reference APPLY
// (reference_test.go), and the
// result must evaluate like the unreduced operator on every in-budget
// assignment. The budget byte deliberately wraps past NumVars so
// saturating budgets (where KReduce is the identity) and k=0 stay in the
// explored space.
// The n-ary kernels (SumMulK, PrefixMaxK) are held to the MulAddK chain the
// same way.
// Each input runs on the shipped table geometry and on tables of 2 entries,
// where all but the last insert has been evicted.
func FuzzKernels(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(56), uint8(6))  // k == NumVars: reduction is the identity
	f.Add(int64(99), uint8(11)) // k > NumVars
	f.Fuzz(func(t *testing.T, seed int64, kb uint8) {
		fuzzKernels(t, seed, kb)
		defer setTableMode(tablesTwoEntries)()
		fuzzKernels(t, seed, kb)
	})
}

func fuzzKernels(t *testing.T, seed int64, kb uint8) {
	const n = 6
	m := New()
	for i := 0; i < n; i++ {
		m.AddVar("x")
	}
	r := rand.New(rand.NewSource(seed))
	k := int(kb % (n + 3))
	fa := randomMTBDD(m, r, n, 4)
	fb := randomMTBDD(m, r, n, 4)
	ga := randomGuard(m, r, n, 4)
	gb := randomGuard(m, r, n, 4)
	// Every fused result with the unreduced operator it must agree with on
	// in-budget assignments, checked pointwise below.
	type pointwise struct {
		name         string
		fused, exact *Node
	}
	var results []pointwise
	for _, set := range []struct {
		kernels []binaryKernel
		f, g    *Node
	}{{arithKernels, fa, fb}, {boolKernels, ga, gb}} {
		for _, bk := range set.kernels {
			exact := bk.composed(m, set.f, set.g)
			want := m.KReduce(exact, k)
			got := bk.fused(m, set.f, set.g, k)
			if got != want {
				t.Fatalf("%s(k=%d) = %s, want %s", bk.name, k, m.String(got), m.String(want))
			}
			results = append(results, pointwise{bk.name, got, exact})
		}
	}
	acc := randomMTBDD(m, r, n, 3)
	exactMA := refMulAdd(m, acc, fa, fb)
	wantMA := m.KReduce(exactMA, k)
	gotMA := m.MulAddK(acc, fa, fb, k)
	if gotMA != wantMA {
		t.Fatalf("MulAddK(k=%d) = %s, want %s", k, m.String(gotMA), m.String(wantMA))
	}
	results = append(results, pointwise{"MulAddK", gotMA, exactMA})
	fs := []*Node{ga, gb, m.And(ga, m.Not(gb)), m.Or(m.Not(ga), gb)}
	fs = fs[:1+r.Intn(len(fs))]
	wantN := m.KReduce(refFold(m, opAdd, fs), k)
	if gotN := m.AddNK(fs, k); gotN != wantN {
		t.Fatalf("AddNK(%d terms, k=%d) = %s, want %s", len(fs), k, m.String(gotN), m.String(wantN))
	}

	// The n-ary weighted sum against the binary chain it replaces: the same
	// node, and the exact Range of every prefix.
	vols, ops := sumOperands(m, r, n, r.Intn(12))
	checkSumKernels(t, m, vols, ops, k)

	// Pointwise semantics on every in-budget assignment: each fused result
	// must agree with its unreduced operator, which no kreduce touched. The
	// fused kernels decide their merges with kreduce and so does the
	// KReduce(composed) oracle above, so node equality alone would pass a
	// kreduce bug the two share.
	allAssignments(n, func(assign []bool) {
		if failures(assign) > k {
			return
		}
		for _, p := range results {
			if got, want := m.Eval(p.fused, assign), m.Eval(p.exact, assign); got != want {
				t.Fatalf("%s(k=%d) at %v: %v, want %v", p.name, k, assign, got, want)
			}
		}
	})
}
