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

// store writes e into its key's entry, as a kernel's miss does.
func (t *fusedCache) store(e fusedEntry) { *t.slot(e.op, e.a, e.b, e.c, e.k) = e }

// lookup returns the result the table holds for e's key, 0 on a miss.
func (t *fusedCache) lookup(e fusedEntry) uint32 {
	if s := t.slot(e.op, e.a, e.b, e.c, e.k); s.is(e.op, e.a, e.b, e.c, e.k) {
		return s.res
	}
	return 0
}

// TestFusedCacheBinaryTernarySeparation: a binary and a ternary key never
// answer for each other. As New makes the table, the two over the same
// operands take different entries and both stay; on a table of two
// entries, a binary and a ternary key searched to share one entry evict
// each other, and a lookup of one never returns the other's result.
func TestFusedCacheBinaryTernarySeparation(t *testing.T) {
	binary := fusedEntry{a: 5, b: 6, c: 0, k: 2, op: opAdd, res: 7}
	ternary := fusedEntry{a: 5, b: 6, c: 0, k: 2, op: opMulAdd, res: 8}
	t.Run("as-made", func(t *testing.T) {
		c := &New().fusedTbl
		c.store(binary)
		c.store(ternary)
		if got := c.lookup(binary); got != 7 {
			t.Fatalf("binary entry lost or aliased: %v", got)
		}
		if got := c.lookup(ternary); got != 8 {
			t.Fatalf("ternary entry lost or aliased: %v", got)
		}
	})
	t.Run("shared-slot", func(t *testing.T) {
		defer setTableMode(tablesTwoEntries)()
		c := &New().fusedTbl
		ternary := ternary
		for c.slot(ternary.op, ternary.a, ternary.b, ternary.c, ternary.k) != c.slot(binary.op, binary.a, binary.b, binary.c, binary.k) {
			ternary.c++
		}
		c.store(binary)
		if got := c.lookup(ternary); got != 0 {
			t.Fatalf("ternary key %+v answered %v, the binary key's result", ternary, got)
		}
		c.store(ternary)
		if got := c.lookup(binary); got != 0 {
			t.Fatalf("binary key answered %v, the ternary key %+v's result", got, ternary)
		}
		if got := c.lookup(ternary); got != 8 {
			t.Fatalf("ternary entry lost: %v", got)
		}
	})
}

// TestTableEntriesHoldNoPointers: the tables are only free for the Go
// collector while no entry type carries a pointer.
func TestTableEntriesHoldNoPointers(t *testing.T) {
	for _, e := range []any{uniqueEntry{}, kreduceEntry{}, fusedEntry{}, unaryEntry{}, rangeEntry{}} {
		typ := reflect.TypeOf(e)
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Uint8, reflect.Int32, reflect.Uint32, reflect.Uint64, reflect.Float64:
			default:
				t.Errorf("%s.%s is a %s: entries must be pointer-free scalars", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

// TestTableEntrySizes pins the computed-table entries at their 32-bit-id
// sizes, so an id widened again fails here rather than only in memory.
func TestTableEntrySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"fusedEntry", unsafe.Sizeof(fusedEntry{}), 24},
		{"kreduceEntry", unsafe.Sizeof(kreduceEntry{}), 12},
		{"unaryEntry", unsafe.Sizeof(unaryEntry{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("a %s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestNodeHoldsNoPointer pins the node layout: 24 bytes, and no field the
// runtime GC would trace, so every slab is noscan. A pointer child coming
// back fails here rather than only in GC time.
func TestNodeHoldsNoPointer(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 24 {
		t.Errorf("a Node is %d bytes, want 24", got)
	}
	node := reflect.TypeOf(Node{})
	for i := 0; i < node.NumField(); i++ {
		switch f := node.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.Struct, reflect.Array:
			t.Errorf("Node.%s is a %s: the slabs would hold pointers", f.Name, f.Type)
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
	if !empty(m.negTbl.entries) || !empty(m.kreduceTbl.entries) ||
		!empty(m.fusedTbl.entries) || !empty(m.rangeTbl.entries) {
		t.Error("ClearCaches left an entry behind")
	}
	if got := m.KReduce(m.MulAddK(a, b, c, 2), 1); got != last {
		t.Error("recomputing after ClearCaches built a different node")
	}
}

// tableArrays names the backing array of each computed table.
func tableArrays(m *Manager) [4]unsafe.Pointer {
	return [4]unsafe.Pointer{
		unsafe.Pointer(unsafe.SliceData(m.negTbl.entries)),
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
	live := func(where string, id uint32) {
		t.Helper()
		if id != 0 && m.slabs[(id-1)>>slabBits] == nil {
			t.Fatalf("%s holds id %d of a released slab", where, id)
		}
	}
	for _, e := range m.unique.entries {
		live("unique table", e.id)
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
	if got, want := m.AddK(keep, g, 2), m.KReduce(refApply(m, opAdd, keep, g), 2); got != want {
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
	if e, nd := unsafe.Sizeof(uniqueEntry{}), unsafe.Sizeof(Node{}); e != 8 || nd != 24 {
		t.Fatalf("a unique-table entry is %d bytes and a node %d, want 8 and 24", e, nd)
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
			lo, hi := m.node(x.lo), m.node(x.hi)
			if got := m.mk(x.Level, lo, hi); got != x {
				t.Fatalf("%s: mk(%d, %d, %d) = node %d, want node %d", when, x.Level, x.lo, x.hi, got.id, x.id)
			}
			walk(lo)
			walk(hi)
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
