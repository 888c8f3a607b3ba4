package mtbdd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
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
// with two keys forced into the same set, on the table as New makes it and
// on a table of one set (onEachGeometry).

// sameSetKeys returns two distinct (a,k) fused keys that map to one set.
func sameSetKeys(t *testing.T, c *fusedCache) (fusedEntry, fusedEntry) {
	t.Helper()
	first := fusedEntry{a: 1, b: 2, c: 0, k: 1, op: opAdd}
	for a := uint64(2); a < 1<<24; a++ {
		if second := (fusedEntry{a: a, b: 2, c: 0, k: 1, op: opAdd}); c.setOf(second) == c.setOf(first) {
			return first, second
		}
	}
	t.Fatal("no colliding key found")
	return fusedEntry{}, fusedEntry{}
}

func (t *fusedCache) putKey(e fusedEntry, res uint64) {
	_, set := t.get(e.op, e.a, e.b, e.c, e.k)
	t.put(set, e.op, e.a, e.b, e.c, e.k, res)
}

func (t *fusedCache) getKey(e fusedEntry) uint64 {
	res, _ := t.get(e.op, e.a, e.b, e.c, e.k)
	return res
}

func (t *fusedCache) setOf(e fusedEntry) uint64 { return t.set(e.op, e.a, e.b, e.c, e.k) }

// onEachGeometry runs test on the fused table of a new manager with the
// shipped geometry and with 2 entries (a single set), handing it two keys
// of one set.
func onEachGeometry(t *testing.T, test func(t *testing.T, c *fusedCache, k1, k2 fusedEntry)) {
	for _, g := range []struct {
		name string
		mode int
	}{{"as-made", tablesShipped}, {"one-set", tablesTwoEntries}} {
		t.Run(g.name, func(t *testing.T) {
			defer setTableMode(g.mode)()
			c := &New().fusedTbl
			k1, k2 := sameSetKeys(t, c)
			test(t, c, k1, k2)
		})
	}
}

func TestFusedCacheKeepsBothWaysOfASet(t *testing.T) {
	onEachGeometry(t, func(t *testing.T, c *fusedCache, k1, k2 fusedEntry) {
		c.putKey(k1, 101)
		c.putKey(k2, 102)
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
	onEachGeometry(t, func(t *testing.T, c *fusedCache, k1, k2 fusedEntry) {
		c.putKey(k1, 101)
		c.putKey(k2, 102) // k1 demoted to secondary
		c.getKey(k1)      // promote k1 back
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
	c := &New().fusedTbl
	binary := fusedEntry{a: 5, b: 6, c: 0, k: 2, op: opAdd}
	ternary := fusedEntry{a: 5, b: 6, c: 0, k: 2, op: opMulAdd}
	c.putKey(binary, 7)
	c.putKey(ternary, 8)
	if got := c.getKey(binary); got != 7 {
		t.Fatalf("binary entry lost or aliased: %v", got)
	}
	if got := c.getKey(ternary); got != 8 {
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

// TestTablesKeepTheirGeometry: New sizes the computed tables once. However
// much a manager computes they keep that size and the arrays they were
// born with, and ClearCaches empties those arrays in place.
func TestTablesKeepTheirGeometry(t *testing.T) {
	m := newMgr(t, 8)
	computedBytes := func() uint64 { return m.Stats().CacheBytes - bytesOf(m.unique.entries) }
	fresh, arrays := computedBytes(), tableArrays(m)
	r := rand.New(rand.NewSource(72))
	var last, a, b, c *Node
	for i := 0; i < 200; i++ {
		a, b, c = randomMTBDD(m, r, 8, 6), randomGuard(m, r, 8, 5), randomMTBDD(m, r, 8, 6)
		last = m.KReduce(m.MulAddK(a, b, c, 2), 1)
	}
	if got := computedBytes(); got != fresh {
		t.Errorf("computed tables hold %d bytes after 200 rounds, a new manager's hold %d", got, fresh)
	}
	if got := tableArrays(m); got != arrays {
		t.Errorf("a computed table was re-allocated: arrays %v, born with %v", got, arrays)
	}
	before := tableArrays(m)
	m.ClearCaches()
	if got := tableArrays(m); got != before {
		t.Errorf("ClearCaches re-allocated a computed table: arrays %v, before %v", got, before)
	}
	if !empty(m.applyTbl.entries) || !empty(m.negTbl.entries) || !empty(m.kreduceTbl.entries) ||
		!empty(m.fusedTbl.entries) || !empty(m.rangeTbl.entries) {
		t.Error("ClearCaches left an entry behind")
	}
	if got := m.KReduce(m.MulAddK(a, b, c, 2), 1); got != last {
		t.Error("recomputing after ClearCaches built a different node")
	}
}

// tableArrays names the backing array of each computed table.
func tableArrays(m *Manager) [5]unsafe.Pointer {
	return [5]unsafe.Pointer{
		unsafe.Pointer(unsafe.SliceData(m.applyTbl.entries)), unsafe.Pointer(unsafe.SliceData(m.negTbl.entries)),
		unsafe.Pointer(unsafe.SliceData(m.kreduceTbl.entries)), unsafe.Pointer(unsafe.SliceData(m.fusedTbl.entries)),
		unsafe.Pointer(unsafe.SliceData(m.rangeTbl.entries)),
	}
}

func empty[E comparable](entries []E) bool {
	var zero E
	for _, e := range entries {
		if e != zero {
			return false
		}
	}
	return true
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
	for _, e := range m.terms.entries {
		live("terminal table", e.id)
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
// managers whose tables hold 2 entries, where all but the last insert has
// been evicted and almost every lookup misses.
func TestKernelsAcrossTableGrowth(t *testing.T) {
	t.Run("pinned-at-2-entries", func(t *testing.T) {
		defer setTableMode(tablesTwoEntries)()
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

// TestTerminalTable: terminals are hash-consed in a table of their own,
// keyed by the value's bits. Equal values share a node, -0 is +0 (NaN
// still panics: TestConstNaNPanics), and a GC keeps exactly the marked
// terminals. Terminals count in neither Stats.Live nor the node budget.
func TestTerminalTable(t *testing.T) {
	m := newMgr(t, 2)
	if m.Const(2.5) != m.Const(2.5) || m.Const(math.Copysign(0, -1)) != m.Zero() {
		t.Fatal("equal values must share one terminal")
	}

	// Enough values to double the table a few times.
	consts := make([]*Node, 4*uniqueInitial)
	for i := range consts {
		consts[i] = m.Const(float64(i) + 0.5)
	}
	for i, c := range consts {
		if got := m.Const(float64(i) + 0.5); got != c || got.Value != float64(i)+0.5 {
			t.Fatalf("Const(%v) = node %d carrying %v after growth, want node %d", float64(i)+0.5, got.id, got.Value, c.id)
		}
	}
	if live := m.Stats().Live; live != 0 {
		t.Fatalf("Stats.Live = %d with only terminals built, want 0", live)
	}

	kept, dropped := consts[7], consts[8]
	root := m.mk(0, m.Zero(), kept)
	droppedID := dropped.id
	m.GC([]*Node{root})
	if got := m.Const(kept.Value); got != kept {
		t.Fatal("GC replaced a marked terminal")
	}
	if got := m.Const(7.75); got.id <= droppedID {
		t.Fatalf("a new value got id %d, not above the ids before the GC", got.id)
	}
	if got := m.Const(8.5); got.id == droppedID {
		t.Fatal("an unmarked terminal survived the GC")
	}
	if m.terms.count != 5 { // 0, 1, the kept value, 7.75 and 8.5 rebuilt
		t.Fatalf("terminal table holds %d entries after the GC, want 5", m.terms.count)
	}

	// The budget counts internal nodes: a budget of two over the one kept
	// admits one mk and any number of terminals.
	m.SetNodeBudget(2)
	if err := Guard(func() {
		for i := 0; i < 100; i++ {
			m.Const(float64(1000 + i))
		}
		m.Var(1)
	}); err != nil {
		t.Fatalf("terminals counted against the node budget: %v", err)
	}
	if live := m.Stats().Live; live != 2 {
		t.Fatalf("Stats.Live = %d, want the 2 internal nodes", live)
	}
}

// TestUniqueTableRehashKeepsEveryNode builds more than 2^14 nodes — the
// table doubles several times and is rebuilt by a GC, each time placing
// entries by their stored hash — and re-derives every survivor through mk,
// which must find the very node.
func TestUniqueTableRehashKeepsEveryNode(t *testing.T) {
	if e, nd := unsafe.Sizeof(uniqueEntry{}), unsafe.Sizeof(Node{}); e != 16 || nd != 40 {
		t.Fatalf("a unique-table entry is %d bytes and a node %d, want 16 and 40", e, nd)
	}
	const n = 16
	m := newMgr(t, n)
	r := rand.New(rand.NewSource(14))
	var roots []*Node
	for m.Stats().Live <= 1<<14 {
		roots = append(roots, randomMTBDD(m, r, n, 8))
	}
	rederive := func(when string) {
		t.Helper()
		seen := m.newBitset()
		var walk func(x *Node)
		walk = func(x *Node) {
			if x.IsTerminal() || seen.visit(x.id) {
				return
			}
			if got := m.mk(x.Level, x.Lo, x.Hi); got != x {
				t.Fatalf("%s: mk(%d, %d, %d) = node %d, want node %d", when, x.Level, x.Lo.id, x.Hi.id, got.id, x.id)
			}
			walk(x.Lo)
			walk(x.Hi)
		}
		for _, x := range roots {
			walk(x)
		}
	}
	created := m.Stats().Created
	rederive("after growth")
	roots = roots[:len(roots)/2]
	m.GC(roots)
	rederive("after GC")
	if got := m.Stats().Created; got != created {
		t.Fatalf("re-deriving survivors created %d nodes", got-created)
	}
}
