package mtbdd

import "unsafe"

// Hash-table machinery tuned for the hot paths. The unique table is an
// exact open-addressing map (hash consing must never alias distinct
// nodes); the five operation caches are lossy — a collision merely
// recomputes a result, which is deterministic and re-canonicalized by the
// unique table, so correctness is unaffected by their size or their hash.
// This is the classic BDD-package design (CUDD-style computed tables): Go's
// generic maps spend most of the runtime in hashing and GC scans.
//
// Three rules keep the computed tables cheap:
//
//   - One fixed, cache-sized geometry. New allocates every computed table
//     with 2^cacheBits entries and nothing ever resizes it. The budgeted
//     kernels are bound by the latency of each probe, not by what a table
//     holds: tables that grew to 2^20 entries hit more often and still ran
//     slower than these, which stay in a core's L2 (DESIGN.md §12 has the
//     sweep).
//   - Pointer-free entries. Every entry names nodes by id, results
//     included; Manager.node resolves an id through the slab directory.
//     The arrays are therefore allocated noscan: Go's collector neither
//     walks them nor keeps anything alive through them. (Go zeroes every
//     array it hands out and scans every pointer-carrying one in full, so
//     a table costs its whole size whether or not it is ever touched.)
//   - Reset in place. clear() empties the arrays; nothing is re-allocated
//     by ClearCaches or Manager.GC.

// cacheBits sizes all five computed tables: 8 K entries each, 1.1 MB
// together.
const cacheBits = 13

// tableMode is a test hook, never set by library code: it overrides the
// geometry New gives the computed tables, so tests can show that verdicts
// do not depend on it (internal/difftest reaches it by go:linkname).
var tableMode = tablesShipped

const (
	tablesShipped    = iota
	tablesTwoEntries // every lookup past the first conflicts
	tablesOldCaps    // the largest sizes the tables grew to before they were fixed
)

// table is what the computed tables share: an array of a power-of-two
// size, allocated once.
type table[E any] struct {
	mask    uint64 // len(entries) - 1
	entries []E
}

// newTable makes a table of 2^cacheBits entries; oldBits is the table's
// size under tablesOldCaps.
func newTable[E any](oldBits int) table[E] {
	bits := cacheBits
	switch tableMode {
	case tablesTwoEntries:
		bits = 1
	case tablesOldCaps:
		bits = oldBits
	}
	return table[E]{mask: 1<<bits - 1, entries: make([]E, 1<<bits)}
}

// mix64 is a splitmix64-style finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- unique table (exact) ---

type uniqueEntry struct {
	level  int32
	lo, hi uint64
	id     uint64 // the node's id; 0 marks an empty slot (ids start at 1)
}

type uniqueTable struct {
	entries []uniqueEntry
	count   int
	mask    uint64
	// maxProbe is the longest linear-probe run ever observed on this
	// table, a direct measurement of hash clustering. It is carried
	// forward across GC rebuilds (the stat is a lifetime high-water mark).
	maxProbe int
}

func newUniqueTable() *uniqueTable {
	const initial = 1 << 12
	return &uniqueTable{entries: make([]uniqueEntry, initial), mask: initial - 1}
}

// hash mixes all three key components through independent odd multipliers
// before the finalizer. The previous scheme (`lo<<1`) left lo nearly raw,
// so sequentially-assigned lo ids formed arithmetic clusters in the table;
// multiply-mixing each operand spreads them (the maxProbe stat is how we
// confirmed the change).
func (t *uniqueTable) hash(level int32, lo, hi uint64) uint64 {
	return mix64(lo*0x9e3779b97f4a7c15 ^ hi*0xc2b2ae3d27d4eb4f ^ uint64(uint32(level))*0x165667b19e3779f9)
}

// lookup returns the id of the canonical node for (level, lo, hi), or 0.
func (t *uniqueTable) lookup(level int32, lo, hi uint64) uint64 {
	i := t.hash(level, lo, hi) & t.mask
	probes := 0
	for {
		e := &t.entries[i]
		if e.id == 0 {
			t.noteProbes(probes)
			return 0
		}
		if e.level == level && e.lo == lo && e.hi == hi {
			t.noteProbes(probes)
			return e.id
		}
		i = (i + 1) & t.mask
		probes++
	}
}

// insert adds a node known to be absent.
func (t *uniqueTable) insert(level int32, lo, hi, id uint64) {
	if t.count*4 >= len(t.entries)*3 {
		t.grow()
	}
	i := t.hash(level, lo, hi) & t.mask
	probes := 0
	for t.entries[i].id != 0 {
		i = (i + 1) & t.mask
		probes++
	}
	t.noteProbes(probes)
	t.entries[i] = uniqueEntry{level, lo, hi, id}
	t.count++
}

func (t *uniqueTable) noteProbes(p int) {
	if p > t.maxProbe {
		t.maxProbe = p
	}
}

func (t *uniqueTable) grow() {
	old := t.entries
	t.entries = make([]uniqueEntry, len(old)*2)
	t.mask = uint64(len(t.entries) - 1)
	for _, e := range old {
		if e.id == 0 {
			continue
		}
		i := t.hash(e.level, e.lo, e.hi) & t.mask
		for t.entries[i].id != 0 {
			i = (i + 1) & t.mask
		}
		t.entries[i] = e
	}
}

// --- apply cache (lossy, direct-mapped) ---
//
// Every lossy table's get returns the cached result's id, or 0 on a miss
// (ids start at 1, and a zeroed slot matches no key for the same reason).

type applyEntry struct {
	f, g uint64 // operand ids
	op   opcode
	res  uint64
}

type applyCache struct{ table[applyEntry] }

func (c *applyCache) slot(op opcode, f, g uint64) *applyEntry {
	h := mix64(f<<6 ^ g ^ uint64(op)<<58)
	return &c.entries[h&c.mask]
}

func (c *applyCache) get(op opcode, f, g uint64) uint64 {
	e := c.slot(op, f, g)
	if e.f == f && e.g == g && e.op == op {
		return e.res
	}
	return 0
}

func (c *applyCache) put(op opcode, f, g, res uint64) {
	*c.slot(op, f, g) = applyEntry{f, g, op, res}
}

// --- kreduce cache (lossy, direct-mapped) ---

type kreduceEntry struct {
	f   uint64
	k   int32
	res uint64
}

type kreduceCache struct{ table[kreduceEntry] }

func (c *kreduceCache) slot(f uint64, k int32) *kreduceEntry {
	return &c.entries[mix64(f^uint64(k)<<48)&c.mask]
}

func (c *kreduceCache) get(f uint64, k int32) uint64 {
	if e := c.slot(f, k); e.f == f && e.k == k {
		return e.res
	}
	return 0
}

func (c *kreduceCache) put(f uint64, k int32, res uint64) {
	*c.slot(f, k) = kreduceEntry{f, k, res}
}

// --- fused-kernel cache (lossy, 2-way set-associative) ---
//
// One computed table serves every budgeted kernel: binary k-budgeted
// applies key (op, f, g, 0, k) and the ternary multiply-accumulate keys
// (opMulAdd, acc, w, f, k). Operand ids start at 1, so a == 0 marks an
// empty slot.
//
// Unlike the other operation caches this one is 2-way: each set is a
// pair of adjacent entries (one cache line), the primary way holds the
// most recently touched key, and an insert demotes the primary into the
// secondary instead of evicting it outright. The budgeted kernels revisit
// (operands, k) pairs across nearby k values, so two hot keys routinely
// share a set — under direct mapping they evicted each other every
// recursion level.

type fusedEntry struct {
	a, b, c uint64
	k       int32
	op      opcode
	res     uint64
}

func (e *fusedEntry) is(op opcode, a, b, c uint64, k int32) bool {
	return e.a == a && e.b == b && e.c == c && e.k == k && e.op == op
}

type fusedCache struct{ table[fusedEntry] }

// set returns the even index of the key's 2-entry set. Every key
// component goes through its own odd multiplier before the finalizer:
// op and k used to ride in as bare shifted bits, which left ternary and
// binary keys with identical operands one bit-flip apart.
func (t *fusedCache) set(op opcode, a, b, c uint64, k int32) uint64 {
	h := mix64(a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f ^ c*0x27d4eb2f165667c5 ^
		uint64(op)*0xd6e8feb86659fd93 ^ uint64(uint32(k))*0xca02d2af59b01d13)
	return (h & t.mask) &^ 1
}

func (t *fusedCache) get(op opcode, a, b, c uint64, k int32) uint64 {
	i := t.set(op, a, b, c, k)
	if e := &t.entries[i]; e.is(op, a, b, c, k) {
		return e.res
	}
	if e := &t.entries[i|1]; e.is(op, a, b, c, k) {
		// Promote to the primary way so the next insert in this set
		// demotes the colder key, not this one.
		res := e.res
		t.entries[i], t.entries[i|1] = t.entries[i|1], t.entries[i]
		return res
	}
	return 0
}

// put makes the key its set's primary way, demoting the key it displaces.
func (t *fusedCache) put(op opcode, a, b, c uint64, k int32, res uint64) {
	i := t.set(op, a, b, c, k)
	if !t.entries[i].is(op, a, b, c, k) {
		t.entries[i|1] = t.entries[i]
	}
	t.entries[i] = fusedEntry{a, b, c, k, op, res}
}

// --- unary caches (Not, Range; lossy, direct-mapped) ---

type unaryEntry struct {
	f   uint64
	res uint64
}

type unaryCache struct{ table[unaryEntry] }

func (c *unaryCache) get(f uint64) uint64 {
	if e := &c.entries[mix64(f)&c.mask]; e.f == f {
		return e.res
	}
	return 0
}

func (c *unaryCache) put(f, res uint64) {
	c.entries[mix64(f)&c.mask] = unaryEntry{f, res}
}

type rangeEntry struct {
	f      uint64
	lo, hi float64
}

type rangeCache struct{ table[rangeEntry] }

func (c *rangeCache) get(f uint64) (lo, hi float64, ok bool) {
	e := &c.entries[mix64(f)&c.mask]
	if e.f == f {
		return e.lo, e.hi, true
	}
	return 0, 0, false
}

func (c *rangeCache) put(f uint64, lo, hi float64) {
	c.entries[mix64(f)&c.mask] = rangeEntry{f, lo, hi}
}

// newTables gives m its five computed tables; each size given is the one
// the table grew to before the geometry was fixed.
func (m *Manager) newTables() {
	m.applyTbl = applyCache{newTable[applyEntry](20)}
	m.fusedTbl = fusedCache{newTable[fusedEntry](20)}
	m.kreduceTbl = kreduceCache{newTable[kreduceEntry](19)}
	m.negTbl = unaryCache{newTable[unaryEntry](17)}
	m.rangeTbl = rangeCache{newTable[rangeEntry](17)}
}

// clearTables empties every computed table in place.
func (m *Manager) clearTables() {
	clear(m.applyTbl.entries)
	clear(m.negTbl.entries)
	clear(m.kreduceTbl.entries)
	clear(m.fusedTbl.entries)
	clear(m.rangeTbl.entries)
}

// tableBytes is what the five computed tables and the unique table hold.
func (m *Manager) tableBytes() uint64 {
	return bytesOf(m.unique.entries) + bytesOf(m.applyTbl.entries) + bytesOf(m.negTbl.entries) +
		bytesOf(m.kreduceTbl.entries) + bytesOf(m.fusedTbl.entries) + bytesOf(m.rangeTbl.entries)
}

func bytesOf[E any](entries []E) uint64 {
	var e E
	return uint64(len(entries)) * uint64(unsafe.Sizeof(e))
}
