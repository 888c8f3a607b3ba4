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
// Four rules keep the computed tables cheap:
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
//   - Direct-mapped, probed once. A key has one entry, found by hashing
//     the key once (slot); a miss writes its result there and reads
//     nothing back, so the store after a deep recursion never waits on a
//     line that has gone cold (DESIGN.md §12 says why this beats 2-way
//     sets).
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

// --- operation caches (lossy, direct-mapped) ---
//
// Each cache's slot returns the key's one entry: a hit is that entry
// holding the key; a miss keeps the pointer across its recursion, which
// never re-allocates a table, and stores its result there. Operand ids
// start at 1, so a zeroed entry matches no key.

type kreduceEntry struct {
	f   uint32
	k   int32
	res uint32
}

type kreduceCache struct{ table[kreduceEntry] }

func (c *kreduceCache) slot(f uint32, k int32) *kreduceEntry {
	return &c.entries[mix64(uint64(f)^uint64(k)<<48)&c.mask]
}

func (e *kreduceEntry) is(f uint32, k int32) bool { return e.f == f && e.k == k }

// One table serves every fused kernel: binary applies key (op, f, g, 0,
// k), the plain operators at k = -1, and the ternary multiply-accumulate
// keys (opMulAdd, acc, w, f, k). Every key component goes through its own
// odd multiplier before the finalizer, so keys that differ only in op or
// k — a binary and a ternary key over the same operands, or one
// subproblem at nearby budgets — land on unrelated entries.

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

func (t *fusedCache) slot(op opcode, a, b, c uint32, k int32) *fusedEntry {
	h := mix64(uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xc2b2ae3d27d4eb4f ^ uint64(c)*0x27d4eb2f165667c5 ^
		uint64(op)*0xd6e8feb86659fd93 ^ uint64(uint32(k))*0xca02d2af59b01d13)
	return &t.entries[h&t.mask]
}

// Not and Range key on one node.

type unaryEntry struct {
	f   uint32
	res uint32
}

type unaryCache struct{ table[unaryEntry] }

func (c *unaryCache) slot(f uint32) *unaryEntry { return &c.entries[mix64(uint64(f))&c.mask] }

type rangeEntry struct {
	f      uint32
	lo, hi float64
}

type rangeCache struct{ table[rangeEntry] }

func (c *rangeCache) slot(f uint32) *rangeEntry { return &c.entries[mix64(uint64(f))&c.mask] }

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
