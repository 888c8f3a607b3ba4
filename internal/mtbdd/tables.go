package mtbdd

import "unsafe"

// Hash-table machinery tuned for the hot paths. The unique and terminal
// tables are exact open-addressing sets (hash consing must never alias
// distinct nodes); the four operation caches are lossy — a collision merely
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

// cacheBits sizes all four computed tables: 8 K entries each, 544 KB
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

// --- unique and terminal tables (exact) ---
//
// Both tables are open-addressing sets of node ids. An entry is 8 bytes —
// the low 32 bits of the key's hash beside the id, eight entries to a
// cache line — and the key itself is read off the node the id names: a
// probe that meets the key's hash confirms it on the node, which the
// caller was about to touch anyway. One probe serves a whole mk (or Const): it either finds
// the node or ends on the empty slot the new node takes. Growth and the
// GC rebuild re-place entries by their stored hash and read no node.

type uniqueEntry struct {
	hash uint32 // the key hash's low 32 bits, so a rehash reads no node
	id   uint32 // the node's id; 0 marks an empty slot (ids start at 1)
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

// uniqueInitial is both tables' size when New makes them and the smallest
// a GC rebuild leaves them.
const uniqueInitial = 1 << 12

func newUniqueTable(size int) uniqueTable {
	return uniqueTable{entries: make([]uniqueEntry, size), mask: uint64(size - 1)}
}

// nodeHash mixes all three key components through independent odd
// multipliers before the finalizer. The previous scheme (`lo<<1`) left lo
// nearly raw, so sequentially-assigned lo ids formed arithmetic clusters
// in the table; multiply-mixing each operand spreads them (the maxProbe
// stat is how we confirmed the change).
func nodeHash(level int32, lo, hi uint32) uint32 {
	return uint32(mix64(uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xc2b2ae3d27d4eb4f ^ uint64(uint32(level))*0x165667b19e3779f9))
}

// termHash hashes a terminal's value bits.
func termHash(bits uint64) uint32 { return uint32(mix64(bits * 0x9e3779b97f4a7c15)) }

// next steps a probe that did not end at slot i.
func (t *uniqueTable) next(i uint64) uint64 { return (i + 1) & t.mask }

func (t *uniqueTable) noteProbes(p int) {
	if p > t.maxProbe {
		t.maxProbe = p
	}
}

// fill stores a new node at the empty slot its probe ended on, then grows
// the table if that took it past a load of 3/4.
func (t *uniqueTable) fill(i uint64, hash, id uint32) {
	t.entries[i] = uniqueEntry{hash, id}
	t.count++
	if t.count*4 > len(t.entries)*3 {
		t.rehash(len(t.entries) * 2)
	}
}

// rehash moves every entry into a fresh array of the given size.
func (t *uniqueTable) rehash(size int) {
	old := t.entries
	t.entries = make([]uniqueEntry, size)
	t.mask = uint64(size - 1)
	for _, e := range old {
		if e.id != 0 {
			t.place(e)
		}
	}
}

func (t *uniqueTable) place(e uniqueEntry) {
	i := uint64(e.hash) & t.mask
	for t.entries[i].id != 0 {
		i = t.next(i)
	}
	t.entries[i] = e
}

// keep drops every entry whose id is not marked, rebuilding the table at
// the smallest size (uniqueInitial or larger) that holds the rest at a
// load of at most 3/4.
func (t *uniqueTable) keep(marked bitset) {
	kept := 0
	for _, e := range t.entries {
		if e.id != 0 && marked.has(e.id) {
			kept++
		}
	}
	size := uniqueInitial
	for kept*4 > size*3 {
		size *= 2
	}
	old := t.entries
	t.entries, t.mask, t.count = make([]uniqueEntry, size), uint64(size-1), kept
	for _, e := range old {
		if e.id != 0 && marked.has(e.id) {
			t.place(e)
		}
	}
}

// --- kreduce cache (lossy, direct-mapped) ---
//
// Every lossy table's get returns the cached result's id, or 0 on a miss
// (ids start at 1, and a zeroed slot matches no key for the same reason).

type kreduceEntry struct {
	f   uint32
	k   int32
	res uint32
}

type kreduceCache struct{ table[kreduceEntry] }

// slot returns the key's entry. kreduce holds it across its recursion and
// stores the result there, so a miss hashes its key once; the table is
// never re-allocated while a kernel runs.
func (c *kreduceCache) slot(f uint32, k int32) *kreduceEntry {
	return &c.entries[mix64(uint64(f)^uint64(k)<<48)&c.mask]
}

func (e *kreduceEntry) is(f uint32, k int32) bool { return e.f == f && e.k == k }

// --- fused-kernel cache (lossy, 2-way set-associative) ---
//
// One computed table serves every kernel: binary applies key (op, f, g, 0,
// k), the plain operators at k = -1, and the ternary multiply-accumulate
// keys (opMulAdd, acc, w, f, k). Operand ids start at 1, so a == 0 marks an
// empty slot.
//
// Unlike the other operation caches this one is 2-way: each set is a
// pair of adjacent entries (2 × 24 B = 48 B, so half the sets span two
// cache lines; padding entries to 32 B, a set to a line, made no
// difference the benchmark could resolve and costs a third more bytes), the
// primary way holds the most recently touched key, and an insert demotes
// the primary into the secondary instead of evicting it outright. The
// budgeted kernels revisit (operands, k) pairs across nearby k values, so
// two hot keys routinely share a set — under direct mapping they evicted
// each other every recursion level.

type fusedEntry struct {
	a, b, c uint32
	k       int32
	op      opcode
	res     uint32
}

func (e *fusedEntry) is(op opcode, a, b, c uint32, k int32) bool {
	return e.a == a && e.b == b && e.c == c && e.k == k && e.op == op
}

type fusedCache struct{ table[fusedEntry] }

// set returns the even index of the key's 2-entry set. Every key
// component goes through its own odd multiplier before the finalizer:
// op and k used to ride in as bare shifted bits, which left ternary and
// binary keys with identical operands one bit-flip apart.
func (t *fusedCache) set(op opcode, a, b, c uint32, k int32) uint64 {
	h := mix64(uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xc2b2ae3d27d4eb4f ^ uint64(c)*0x27d4eb2f165667c5 ^
		uint64(op)*0xd6e8feb86659fd93 ^ uint64(uint32(k))*0xca02d2af59b01d13)
	return (h & t.mask) &^ 1
}

// get returns the cached result's id (0 on a miss) and the key's set, which
// the kernel hands back to put once it has computed the result: a miss
// hashes its key once.
func (t *fusedCache) get(op opcode, a, b, c uint32, k int32) (res uint32, set uint64) {
	i := t.set(op, a, b, c, k)
	if e := &t.entries[i]; e.is(op, a, b, c, k) {
		return e.res, i
	}
	if e := &t.entries[i|1]; e.is(op, a, b, c, k) {
		// Promote to the primary way so the next insert in this set
		// demotes the colder key, not this one.
		res := e.res
		t.entries[i], t.entries[i|1] = t.entries[i|1], t.entries[i]
		return res, i
	}
	return 0, i
}

// put stores the key as the primary way of set, the index get returned for
// it, demoting the key it displaces.
func (t *fusedCache) put(set uint64, op opcode, a, b, c uint32, k int32, res uint32) {
	if !t.entries[set].is(op, a, b, c, k) {
		t.entries[set|1] = t.entries[set]
	}
	t.entries[set] = fusedEntry{a, b, c, k, op, res}
}

// --- unary caches (Not, Range; lossy, direct-mapped) ---

type unaryEntry struct {
	f   uint32
	res uint32
}

type unaryCache struct{ table[unaryEntry] }

func (c *unaryCache) get(f uint32) uint32 {
	if e := &c.entries[mix64(uint64(f))&c.mask]; e.f == f {
		return e.res
	}
	return 0
}

func (c *unaryCache) put(f, res uint32) {
	c.entries[mix64(uint64(f))&c.mask] = unaryEntry{f, res}
}

type rangeEntry struct {
	f      uint32
	lo, hi float64
}

type rangeCache struct{ table[rangeEntry] }

func (c *rangeCache) get(f uint32) (lo, hi float64, ok bool) {
	e := &c.entries[mix64(uint64(f))&c.mask]
	if e.f == f {
		return e.lo, e.hi, true
	}
	return 0, 0, false
}

func (c *rangeCache) put(f uint32, lo, hi float64) {
	c.entries[mix64(uint64(f))&c.mask] = rangeEntry{f, lo, hi}
}

// newTables gives m its four computed tables; each size given is the one
// the table grew to before the geometry was fixed.
func (m *Manager) newTables() {
	m.fusedTbl = fusedCache{newTable[fusedEntry](20)}
	m.kreduceTbl = kreduceCache{newTable[kreduceEntry](19)}
	m.negTbl = unaryCache{newTable[unaryEntry](17)}
	m.rangeTbl = rangeCache{newTable[rangeEntry](17)}
}

// clearTables empties every computed table in place.
func (m *Manager) clearTables() {
	clear(m.negTbl.entries)
	clear(m.kreduceTbl.entries)
	clear(m.fusedTbl.entries)
	clear(m.rangeTbl.entries)
}

// tableBytes is what the four computed tables, the unique table and the
// terminal table hold.
func (m *Manager) tableBytes() uint64 {
	return bytesOf(m.unique.entries) + bytesOf(m.terms.entries) + bytesOf(m.negTbl.entries) +
		bytesOf(m.kreduceTbl.entries) + bytesOf(m.fusedTbl.entries) + bytesOf(m.rangeTbl.entries)
}

func bytesOf[E any](entries []E) uint64 {
	var e E
	return uint64(len(entries)) * uint64(unsafe.Sizeof(e))
}
