package mtbdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// setTableMode overrides the computed tables' geometry for managers made
// until the returned restore runs.
func setTableMode(mode int) (restore func()) {
	old := tableMode
	tableMode = mode
	return func() { tableMode = old }
}

// The fused cache's 2-way sets must behave like a tiny LRU: an insert
// demotes the set's primary into the secondary way instead of evicting
// it, and a secondary hit promotes back. These tests pin that contract
// with two keys forced into the same set — of the table as made, and of
// the table after a doubling has moved them (beforeAndAfterDoubling).

// sameSetKeys returns two distinct (a,k) fused keys that map to one set
// at the table's current size and at twice that size.
func sameSetKeys(t *testing.T, c *fusedCache) (fusedEntry, fusedEntry) {
	t.Helper()
	big := fusedCache{lossy: lossy{mask: c.mask<<1 | 1}}
	first := fusedEntry{a: 1, b: 2, c: 0, k: 1, op: opAdd}
	want, wantBig := c.set(first.op, first.a, first.b, first.c, first.k), big.set(first.op, first.a, first.b, first.c, first.k)
	for a := uint64(2); a < 1<<24; a++ {
		if c.set(opAdd, a, 2, 0, 1) == want && big.set(opAdd, a, 2, 0, 1) == wantBig {
			return first, fusedEntry{a: a, b: 2, c: 0, k: 1, op: opAdd}
		}
	}
	t.Fatal("no colliding key found")
	return fusedEntry{}, fusedEntry{}
}

func (t *fusedCache) putKey(e fusedEntry, res uint64) { t.put(e.op, e.a, e.b, e.c, e.k, res) }
func (t *fusedCache) getKey(e fusedEntry) uint64      { return t.get(e.op, e.a, e.b, e.c, e.k) }
func (t *fusedCache) setOf(e fusedEntry) uint64       { return t.set(e.op, e.a, e.b, e.c, e.k) }

// beforeAndAfterDoubling runs check on a fresh fused table twice: with
// fill called on the table as made, and with a doubling between fill and
// check.
func beforeAndAfterDoubling(t *testing.T, fill func(c *fusedCache, k1, k2 fusedEntry), check func(t *testing.T, c *fusedCache, k1, k2 fusedEntry)) {
	for _, grow := range []bool{false, true} {
		name := "as-made"
		if grow {
			name = "doubled"
		}
		t.Run(name, func(t *testing.T) {
			c := newFusedCache()
			k1, k2 := sameSetKeys(t, c)
			fill(c, k1, k2)
			if grow {
				size := len(c.entries)
				c.grow()
				if len(c.entries) != 2*size || c.resizes != 1 {
					t.Fatalf("grow: %d -> %d entries, %d resizes", size, len(c.entries), c.resizes)
				}
			}
			check(t, c, k1, k2)
		})
	}
}

func TestFusedCacheKeepsBothWaysOfASet(t *testing.T) {
	beforeAndAfterDoubling(t, func(c *fusedCache, k1, k2 fusedEntry) {
		c.putKey(k1, 101)
		c.putKey(k2, 102)
	}, func(t *testing.T, c *fusedCache, k1, k2 fusedEntry) {
		// Direct mapping would have evicted k1; 2-way keeps both.
		if got := c.getKey(k1); got != 101 {
			t.Fatalf("first key lost after colliding insert: %v", got)
		}
		if got := c.getKey(k2); got != 102 {
			t.Fatalf("second key lost: %v", got)
		}
	})
}

func TestFusedCachePromotionProtectsHotKey(t *testing.T) {
	beforeAndAfterDoubling(t, func(c *fusedCache, k1, k2 fusedEntry) {
		c.putKey(k1, 101)
		c.putKey(k2, 102) // k1 demoted to secondary
		c.getKey(k1)      // promote k1 back
	}, func(t *testing.T, c *fusedCache, k1, k2 fusedEntry) {
		i := c.setOf(k1)
		if !c.entries[i].is(k1.op, k1.a, k1.b, k1.c, k1.k) {
			t.Fatal("the promoted key is not its set's primary way")
		}
		// A third same-set insert must now evict k2 (the cold key), not k1.
		k3 := k2
		for k3.b = 3; c.setOf(k3) != i; k3.b++ {
		}
		c.putKey(k3, 103)
		if c.getKey(k1) == 0 {
			t.Fatal("promoted hot key was evicted before the cold one")
		}
		if c.getKey(k2) != 0 {
			t.Fatal("the cold key survived a third insert into a 2-way set")
		}
		// Idempotent re-put of the primary must not duplicate it into both ways.
		c.putKey(k1, 101)
		c.putKey(k1, 101)
		if c.entries[i].is(k1.op, k1.a, k1.b, k1.c, k1.k) && c.entries[i|1].is(k1.op, k1.a, k1.b, k1.c, k1.k) {
			t.Fatal("re-put duplicated the key into both ways")
		}
	})
}

func TestFusedCacheBinaryTernarySeparation(t *testing.T) {
	// Same operands under a binary op and the ternary op must not alias.
	c := newFusedCache()
	c.put(opAdd, 5, 6, 0, 2, 7)
	c.put(opMulAdd, 5, 6, 0, 2, 8)
	if got := c.get(opAdd, 5, 6, 0, 2); got != 7 {
		t.Fatalf("binary entry lost or aliased: %v", got)
	}
	if got := c.get(opMulAdd, 5, 6, 0, 2); got != 8 {
		t.Fatalf("ternary entry lost or aliased: %v", got)
	}
}

// TestTableEntriesHoldNoPointers: the tables are only free for the Go
// collector while no entry type carries a pointer.
func TestTableEntriesHoldNoPointers(t *testing.T) {
	for _, e := range []any{uniqueEntry{}, applyEntry{}, kreduceEntry{}, fusedEntry{}, unaryEntry{}, rangeEntry{}} {
		typ := reflect.TypeOf(e)
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Uint8, reflect.Int32, reflect.Uint64, reflect.Float64:
			default:
				t.Errorf("%s.%s is a %s: entries must be pointer-free scalars", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

// TestTablesGrowWithUseAndStopAtTheCap: a table doubles once it has taken
// as many inserts as it has slots, keeps what it held, and never passes its
// cap; ClearCaches empties it without shrinking or re-allocating it.
func TestTablesGrowWithUseAndStopAtTheCap(t *testing.T) {
	c := newApplyCache()
	start := len(c.entries)
	if start != 1<<cacheStartBits {
		t.Fatalf("a fresh apply cache has %d entries, want %d", start, 1<<cacheStartBits)
	}
	for f := uint64(1); f < uint64(start); f++ {
		c.put(opAdd, f, f+1, f+2)
	}
	if len(c.entries) != start {
		t.Fatalf("grew after %d inserts into %d slots", start-1, start)
	}
	held := 0
	for f := uint64(1); f < uint64(start); f++ {
		if c.get(opAdd, f, f+1) == f+2 {
			held++
		}
	}
	c.put(opAdd, 1, 2, 3)
	if len(c.entries) != 2*start || c.resizes != 1 {
		t.Fatalf("%d entries, %d resizes after %d inserts", len(c.entries), c.resizes, start)
	}
	kept := 0
	for f := uint64(1); f < uint64(start); f++ {
		if c.get(opAdd, f, f+1) == f+2 {
			kept++
		}
	}
	if kept < held {
		t.Fatalf("the doubling dropped entries: %d held before, %d after", held, kept)
	}
	for f := uint64(1); f < 5<<applyCacheBits; f++ {
		c.put(opMul, f, f, f)
	}
	if len(c.entries) != 1<<applyCacheBits {
		t.Fatalf("%d entries after %d inserts, want the cap %d", len(c.entries), 5<<applyCacheBits, 1<<applyCacheBits)
	}

	m := newMgr(t, 8)
	r := rand.New(rand.NewSource(71))
	defer setTableMode(tablesFromMin)()
	small := newMgr(t, 8)
	for _, m := range []*Manager{m, small} {
		for i := 0; i < 20; i++ {
			m.KReduce(m.MulAddK(randomMTBDD(m, r, 8, 5), randomGuard(m, r, 8, 4), randomMTBDD(m, r, 8, 5), 2), 1)
		}
	}
	before := small.Stats()
	if before.CacheResizes == 0 || before.CacheBytes >= m.Stats().CacheBytes {
		t.Fatalf("tables born at 2 entries: %d resizes, %d bytes (default geometry %d bytes)",
			before.CacheResizes, before.CacheBytes, m.Stats().CacheBytes)
	}
	arrays := small.fusedTbl.entries
	small.ClearCaches()
	if after := small.Stats(); after.CacheBytes != before.CacheBytes || after.CacheResizes != before.CacheResizes {
		t.Fatalf("ClearCaches changed the geometry: %+v -> %+v", before, after)
	}
	if &arrays[0] != &small.fusedTbl.entries[0] {
		t.Fatal("ClearCaches re-allocated the fused table")
	}
	for _, e := range small.fusedTbl.entries {
		if e != (fusedEntry{}) {
			t.Fatal("ClearCaches left an entry behind")
		}
	}
}

// TestTrimCachesReturnsToTheStartingSize: TrimCaches gives a manager whose
// tables have grown the computed tables of a new one — the unique table, and
// with it every node, stays — keeps the lifetime resize tally, and what is
// computed afterwards is the same canonical node.
func TestTrimCachesReturnsToTheStartingSize(t *testing.T) {
	m := newMgr(t, 8)
	fresh := m.Stats()
	r := rand.New(rand.NewSource(72))
	var last, a, b, c *Node
	for i := 0; i < 200; i++ {
		a, b, c = randomMTBDD(m, r, 8, 6), randomGuard(m, r, 8, 5), randomMTBDD(m, r, 8, 6)
		last = m.KReduce(m.MulAddK(a, b, c, 2), 1)
	}
	grown := m.Stats()
	if grown.CacheResizes == 0 || grown.CacheBytes <= fresh.CacheBytes {
		t.Fatalf("the workload did not grow the tables: %d resizes, %d -> %d bytes", grown.CacheResizes, fresh.CacheBytes, grown.CacheBytes)
	}
	uniqueBytes := func() uint64 { return bytesOf(m.unique.entries) }
	freshComputed, grownUnique := fresh.CacheBytes-bytesOf(newUniqueTable().entries), uniqueBytes()
	m.TrimCaches()
	after := m.Stats()
	if got := after.CacheBytes - uniqueBytes(); got != freshComputed {
		t.Errorf("computed tables hold %d bytes after TrimCaches, a new manager's hold %d", got, freshComputed)
	}
	if uniqueBytes() != grownUnique || after.Live != grown.Live {
		t.Errorf("TrimCaches touched the unique table: %d -> %d bytes, %d -> %d live", grownUnique, uniqueBytes(), grown.Live, after.Live)
	}
	if after.CacheResizes != grown.CacheResizes {
		t.Errorf("TrimCaches reset the resize tally: %d -> %d", grown.CacheResizes, after.CacheResizes)
	}
	if got := m.KReduce(m.MulAddK(a, b, c, 2), 1); got != last {
		t.Error("recomputing after TrimCaches built a different node")
	}
}

// TestCachedIDsNeverNameAReleasedSlab: the tables hold ids that
// Manager.node resolves through the slab directory, and GC nils the slabs
// whose nodes all died. Every id a table still holds after a GC must name
// a live slab, and operating on the survivors must work.
func TestCachedIDsNeverNameAReleasedSlab(t *testing.T) {
	const n = 16
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(72))
	keep := m.AddK(randomMTBDD(m, r, n, 6), randomMTBDD(m, r, n, 6), 2)
	for m.Stats().Created < 3*slabSize {
		m.KReduce(m.Mul(m.Not(randomGuard(m, r, n, 8)), randomMTBDD(m, r, n, 8)), 2)
	}
	m.GC([]*Node{keep})
	released := 0
	for _, s := range m.slabs {
		if s == nil {
			released++
		}
	}
	if released == 0 {
		t.Fatal("the GC released no slab: the test builds too little garbage")
	}
	live := func(where string, id uint64) {
		t.Helper()
		if id != 0 && m.slabs[(id-1)>>slabBits] == nil {
			t.Fatalf("%s holds id %d of a released slab", where, id)
		}
	}
	for _, e := range m.unique.entries {
		live("unique table", e.id)
	}
	for _, e := range m.applyTbl.entries {
		live("apply cache", e.res)
	}
	for _, e := range m.negTbl.entries {
		live("neg cache", e.res)
	}
	for _, e := range m.kreduceTbl.entries {
		live("kreduce cache", e.res)
	}
	for _, e := range m.fusedTbl.entries {
		live("fused cache", e.res)
	}
	// The survivors still resolve and new work lands in live slabs.
	if got := m.node(keep.id); got != keep {
		t.Fatalf("node(%d) = %p, want the kept root %p", keep.id, got, keep)
	}
	g := randomMTBDD(m, r, n, 6)
	if got, want := m.AddK(keep, g, 2), m.KReduce(m.Add(keep, g), 2); got != want {
		t.Fatal("AddK diverged from the composed form after slabs were released")
	}
}

// TestKernelsAcrossTableGrowth re-runs the kernel contract tests on
// managers whose tables are born with 2 entries, so every lookup of every
// test sits on a growth path, and on managers pinned there, where all but
// the last insert has been evicted.
func TestKernelsAcrossTableGrowth(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode int
	}{{"from-2-entries", tablesFromMin}, {"pinned-at-2-entries", tablesPinnedMin}} {
		t.Run(mode.name, func(t *testing.T) {
			defer setTableMode(mode.mode)()
			t.Run("BinaryKernels", TestFusedBinaryKernelsMatchComposed)
			t.Run("EvalAgreement", TestFusedKernelEvalAgreement)
			t.Run("EdgeBudgets", TestFusedKernelsEdgeBudgets)
			t.Run("MulAdd", TestMulAddMatchesComposed)
			t.Run("MulAddK", TestMulAddKMatchesComposed)
			t.Run("AddN", TestAddNMatchesFold)
			t.Run("AddNK", TestAddNKMatchesComposed)
			t.Run("AfterGC", TestFusedKernelsAfterGC)
		})
	}
}
