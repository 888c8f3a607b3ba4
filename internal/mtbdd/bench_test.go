package mtbdd

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the fused-kernel layer (ISSUE 5): each pair
// measures one fusion against the composed pipeline it replaces, on
// operand shapes sized like symbolic traffic execution intermediates.
// CI runs these with -benchtime=1x purely as a bit-rot tripwire; real
// numbers come from `go run ./benchmark` (EXPERIMENTS.md).

const benchVars = 24

func benchSetup(b *testing.B, seed int64) (*Manager, *rand.Rand) {
	b.Helper()
	m := New()
	for i := 0; i < benchVars; i++ {
		m.AddVar("x")
	}
	return m, rand.New(rand.NewSource(seed))
}

// BenchmarkApplyThenReduce is the pre-fusion shape: build the full sum,
// then KREDUCE it. Compare with BenchmarkFusedAddK.
func BenchmarkApplyThenReduce(b *testing.B) {
	m, r := benchSetup(b, 61)
	f := randomMTBDD(m, r, benchVars, 12)
	g := randomMTBDD(m, r, benchVars, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		m.KReduce(m.Add(f, g), 2)
	}
}

// BenchmarkFusedAddK is the same sum through the k-budgeted kernel: the
// unreduced intermediate is never built.
func BenchmarkFusedAddK(b *testing.B) {
	m, r := benchSetup(b, 61)
	f := randomMTBDD(m, r, benchVars, 12)
	g := randomMTBDD(m, r, benchVars, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		m.AddK(f, g, 2)
	}
}

// BenchmarkMulThenAddThenReduce is the composed weighted-accumulate:
// product, sum, reduce — three full traversals with two intermediates.
func BenchmarkMulThenAddThenReduce(b *testing.B) {
	m, r := benchSetup(b, 62)
	acc := randomMTBDD(m, r, benchVars, 10)
	w := randomMTBDD(m, r, benchVars, 10)
	f := randomMTBDD(m, r, benchVars, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		m.KReduce(m.Add(acc, m.Mul(w, f)), 2)
	}
}

// BenchmarkFusedMulAddK is the same accumulate as one ternary DFS.
func BenchmarkFusedMulAddK(b *testing.B) {
	m, r := benchSetup(b, 62)
	acc := randomMTBDD(m, r, benchVars, 10)
	w := randomMTBDD(m, r, benchVars, 10)
	f := randomMTBDD(m, r, benchVars, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		m.MulAddK(acc, w, f, 2)
	}
}

// benchGuards builds the selection-guard slices the n-ary kernels see.
func benchGuards(m *Manager, r *rand.Rand, count int) []*Node {
	fs := make([]*Node, count)
	for i := range fs {
		fs[i] = randomGuard(m, r, benchVars, 6)
	}
	return fs
}

// BenchmarkSumPairwiseReduce is the legacy left-fold accumulation with a
// trailing reduce. Compare with BenchmarkAddNK.
func BenchmarkSumPairwiseReduce(b *testing.B) {
	m, r := benchSetup(b, 63)
	fs := benchGuards(m, r, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		acc := m.Zero()
		for _, f := range fs {
			acc = m.Add(acc, f)
		}
		m.KReduce(acc, 2)
	}
}

// BenchmarkAddNK is the balanced fused tree over the same guards.
func BenchmarkAddNK(b *testing.B) {
	m, r := benchSetup(b, 63)
	fs := benchGuards(m, r, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
		m.AddNK(fs, 2)
	}
}

// --- fused computed-cache tuning (ISSUE 10) ---

// fusedTrace builds a key stream shaped like the budgeted kernels'
// reference pattern: sequentially-assigned operand ids (hash consing
// hands them out in order), k drawn from a small range, a binary/ternary
// mix, and each distinct key revisited several times (the recursion
// re-derives shared subproblems). Hits above the compulsory floor are
// what the cache organization controls.
func fusedTrace(r *rand.Rand, distinct, length int) []fusedEntry {
	keys := make([]fusedEntry, distinct)
	for i := range keys {
		op, c := opAdd, uint32(0)
		if i%3 == 0 {
			op, c = opMulAdd, uint32(r.Intn(1<<19)+1)
		}
		keys[i] = fusedEntry{
			a:  uint32(r.Intn(1<<19) + 1),
			b:  uint32(r.Intn(1<<19) + 1),
			c:  c,
			k:  int32(r.Intn(3)),
			op: op,
		}
	}
	trace := make([]fusedEntry, length)
	for i := range trace {
		trace[i] = keys[r.Intn(distinct)]
	}
	return trace
}

// BenchmarkFusedCache replays the trace through the table a new manager
// has, and reports the steady-state hit rate and the cost of a lookup. The
// trace is scaled to the table: 2/3 as many distinct keys as entries,
// twice as many lookups (the proportions of the 700 K keys and 2 M lookups
// it was first run with on 2^20 entries, EXPERIMENTS.md).
func BenchmarkFusedCache(b *testing.B) {
	c := &New().fusedTbl
	trace := fusedTrace(rand.New(rand.NewSource(65)), len(c.entries)*2/3, 2*len(c.entries))
	// Warm-up pass: absorb the compulsory misses so the reported
	// hit-rate is the steady state the cache organization controls.
	replay := func() (hits int) {
		for _, key := range trace {
			if e := c.slot(key.op, key.a, key.b, key.c, key.k); e.is(key.op, key.a, key.b, key.c, key.k) {
				hits++
			} else {
				*e = fusedEntry{key.a, key.b, key.c, key.k, key.op, 1}
			}
		}
		return hits
	}
	replay()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		hits += replay()
	}
	b.ReportMetric(float64(hits)/float64(b.N*len(trace)), "hit-rate")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/lookup")
}

// --- what a manager costs (ISSUE 15) ---
//
// Compositional verification makes one manager per domain, each for a few
// thousand to a few ten thousand nodes: there the price of New and
// ClearCaches is the price of the run.

var benchSink *Node

func BenchmarkNewManager(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = New().One()
	}
}

// smallWorkload builds about 10 K nodes with the budgeted kernels.
func smallWorkload(m *Manager, r *rand.Rand) *Node {
	for i := 0; i < benchVars; i++ {
		m.AddVar("x")
	}
	acc := m.Zero()
	for i := 0; i < 12; i++ {
		acc = m.MulAddK(acc, randomGuard(m, r, benchVars, 6), randomMTBDD(m, r, benchVars, 7), 2)
	}
	return acc
}

// BenchmarkSmallManagerWorkload is the compose-domain regime end to end: a fresh manager, a ~10 K-node build, dropped.
func BenchmarkSmallManagerWorkload(b *testing.B) {
	b.ReportAllocs()
	var created uint64
	for i := 0; i < b.N; i++ {
		m := New()
		benchSink = smallWorkload(m, rand.New(rand.NewSource(66)))
		created = m.Stats().Created
	}
	b.ReportMetric(float64(created), "nodes")
}

// BenchmarkClearCaches clears the tables of a manager that has done the
// small workload (what Manager.GC pays).
func BenchmarkClearCaches(b *testing.B) {
	m := New()
	smallWorkload(m, rand.New(rand.NewSource(66)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClearCaches()
	}
	b.ReportMetric(float64(m.Stats().CacheBytes), "table-bytes")
}

// mapNodeCount is the retired map-based walker, kept here as the
// baseline the id-keyed bitset replaced.
func mapNodeCount(m *Manager, n *Node) int {
	seen := make(map[*Node]struct{})
	var walk func(*Node) int
	walk = func(n *Node) int {
		if _, ok := seen[n]; ok {
			return 0
		}
		seen[n] = struct{}{}
		if n.IsTerminal() {
			return 1
		}
		return 1 + walk(m.node(n.lo)) + walk(m.node(n.hi))
	}
	return walk(n)
}

// BenchmarkNodeCountMap walks with the old map visited-set.
func BenchmarkNodeCountMap(b *testing.B) {
	m, r := benchSetup(b, 64)
	f := randomMTBDD(m, r, benchVars, 13)
	want := m.NodeCount(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mapNodeCount(m, f); got != want {
			b.Fatalf("map walker counted %d, bitset %d", got, want)
		}
	}
}

// BenchmarkNodeCountBitset walks with the id-keyed bitset (the shipped
// implementation).
func BenchmarkNodeCountBitset(b *testing.B) {
	m, r := benchSetup(b, 64)
	f := randomMTBDD(m, r, benchVars, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.NodeCount(f)
	}
}

// --- one probe per mk ---
//
// The unique and terminal tables' per-call cost, on a unique table past L2
// (mkPool nodes, an 8 MB table), visited in random order as a kernel's
// operands are: the first entry load, not the probe length, is the price.

const mkPool = 1 << 9 // mkPool² pairs, 2^18 nodes

// mkPairs returns a manager holding mkPool level-1 nodes and the pool.
func mkPairs(b *testing.B) (*Manager, []*Node) {
	b.Helper()
	m := New()
	m.AddVar("x")
	m.AddVar("y")
	pool := make([]*Node, mkPool)
	for i := range pool {
		pool[i] = m.mk(1, m.Zero(), m.Const(float64(i+2)))
	}
	return m, pool
}

// BenchmarkMkHit looks up nodes that exist and reads each one's id.
func BenchmarkMkHit(b *testing.B) {
	m, pool := mkPairs(b)
	type pair struct{ lo, hi *Node }
	pairs := make([]pair, 0, mkPool*(mkPool-1))
	for _, lo := range pool {
		for _, hi := range pool {
			if lo != hi {
				pairs = append(pairs, pair{lo, hi})
				m.mk(0, lo, hi)
			}
		}
	}
	rand.New(rand.NewSource(67)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	created := m.created
	var ids uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A kernel reads what mk returns (its id goes into a computed
		// table), so the benchmark does too.
		p := pairs[i%len(pairs)]
		ids += uint64(m.mk(0, p.lo, p.hi).id)
	}
	if ids == 0 || m.created != created {
		b.Fatal("a hit created a node")
	}
}

// BenchmarkMkMiss creates nodes, collecting them every 2^16 (untimed).
func BenchmarkMkMiss(b *testing.B) {
	m, pool := mkPairs(b)
	r := rand.New(rand.NewSource(68))
	b.ResetTimer()
	for i, made := 0, 0; i < b.N; i++ {
		if made == 1<<16 {
			b.StopTimer()
			m.GC(pool)
			made = 0
			b.StartTimer()
		}
		n := m.created
		m.mk(0, pool[r.Intn(mkPool)], pool[r.Intn(mkPool)])
		made += int(m.created - n)
	}
}

// BenchmarkConst looks up terminals that exist, 4 K values in random order.
func BenchmarkConst(b *testing.B) {
	m := New()
	vals := make([]float64, 1<<12)
	for i := range vals {
		vals[i] = float64(i) * 0.25
		m.Const(vals[i])
	}
	rand.New(rand.NewSource(69)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Const(vals[i&(len(vals)-1)])
	}
}
