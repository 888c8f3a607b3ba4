// Package mtbdd implements multi-terminal binary decision diagrams
// (MTBDDs), the compact symbolic representation YU uses for guards,
// symbolic traffic fractions (STFs), and symbolic traffic loads (STLs).
//
// An MTBDD is a single-source directed acyclic graph whose internal nodes
// test boolean variables (in a fixed global order) and whose terminal
// nodes carry real values. It represents a pseudo-boolean function
// {0,1}^n -> R. Boolean guards are MTBDDs whose terminals are 0 and 1.
//
// All nodes are hash-consed by a Manager: structurally equal functions are
// represented by the same *Node pointer, so semantic equality checks —
// including the link-local flow-equivalence test of the paper (§5.3) —
// are single pointer comparisons.
//
// The package also implements the paper's KREDUCE operation (§5.2,
// Definition 5.2): k-failure-equivalence reduction that shrinks an MTBDD
// while preserving its value on every assignment with at most k zeros.
package mtbdd

import (
	"fmt"
	"math"
	"unsafe"
)

// Node is a hash-consed MTBDD node. Nodes must only be created through a
// Manager; two nodes from the same Manager represent the same function if
// and only if they are the same pointer.
//
// A terminal node has Level == terminalLevel and carries Value. An internal
// node tests the variable at its Level: its hi child is the cofactor where
// the variable is 1 (element alive), its lo child where it is 0 (element
// failed).
//
// A Node is 24 bytes and holds no Go pointer: its children are ids, which
// the Manager resolves through its slab directory (Manager.node), so the
// slabs are noscan memory the runtime GC never marks through. A *Node is a
// handle into a slab the Manager holds; walking below it needs the Manager.
type Node struct {
	// Level is the variable index tested by this node, or terminalLevel
	// for terminals. Variables are tested in increasing Level order from
	// the root.
	Level int32
	// id is the Manager-assigned unique identifier used in cache keys.
	// It shares Level's 8-byte word.
	id uint32
	// Value is a terminal's value. An internal node carries its all-alive
	// value F(1,…,1) here — its hi child's Value, set by mk — so the
	// budget-spent cut of the fused kernels and KREDUCE's β₀ read one field
	// instead of walking the hi chain (EvalAllAlive). It is not part of the
	// node's identity and snapshots do not record it.
	Value float64
	// lo and hi are the ids of the cofactors for variable=0 and
	// variable=1; a terminal's are 0.
	lo, hi uint32
}

const terminalLevel int32 = math.MaxInt32

// IsTerminal reports whether n is a terminal (constant) node.
func (n *Node) IsTerminal() bool { return n.Level == terminalLevel }

// Manager owns the unique table, operation caches, and the variable order
// for a family of MTBDDs. All operations combining nodes require that the
// nodes were created by the same Manager. A Manager is not safe for
// concurrent use; create one Manager per goroutine or synchronize
// externally.
type Manager struct {
	names []string // variable names, indexed by level

	unique uniqueTable // internal nodes, keyed by (level, lo, hi)
	terms  uniqueTable // terminals, keyed by Float64bits of the value

	negTbl     unaryCache
	kreduceTbl kreduceCache
	fusedTbl   fusedCache
	rangeTbl   rangeCache

	zero *Node
	one  *Node

	// scanMemo and scanVals are ScanOutside's table, kept empty between
	// scans (keepScanTable).
	scanMemo map[*Node]int32
	scanVals []int32
	// rangeMemo is Range's exact memo and sum the state of the n-ary sum
	// kernels (SumMulK, PrefixMaxK): walk scratch like the scan table, kept
	// empty and pinning no node between calls.
	rangeMemo map[*Node]valueRange
	sum       *sumState

	// Node storage. Nodes are carved out of fixed-size slabs instead of
	// being allocated one heap object each: slab s holds node ids
	// s·slabSize+1 … (s+1)·slabSize (id 0 marks empty table slots), filled
	// in order. A node holds no pointer, so a slab is noscan: the runtime
	// GC neither scans nor marks through it. Pointers into a slab are
	// stable (slabs are never moved or resized), which hash-consing
	// canonicity requires. Manager.GC releases slabs whose nodes are all
	// dead and lists their indices in free; alloc fills the open slab, then
	// reopens the lowest free index before it extends the directory, so the
	// id space a manager spans follows the slabs it holds, not the nodes it
	// ever created. The slice doubles as the id → node directory the tables
	// resolve their entries through (node).
	slabs    []*slab
	open     int // index of the slab alloc fills
	slabUsed int // cells of the open slab handed out
	free     []int
	// spare holds pre-allocated slabs handed out by alloc before it
	// allocates a new one. Reserve fills it so a known-size bulk construction
	// (e.g. ImportSnapshot replaying a shared base) runs without mid-build
	// allocation stalls.
	spare []*slab

	// Resource governance (see interrupt.go): an optional interrupt
	// hook polled every interruptStride operations, and an optional
	// live-node budget checked on node construction.
	interrupt func() error
	opTick    uint64
	budget    int

	// stats. Cache hit/miss tallies live on the Manager — not inside the
	// cache structs — so they are cumulative over the Manager's lifetime:
	// ClearCaches (and GC, which calls it) empties the caches but never
	// resets a counter.
	created       uint64
	peakUnique    int
	negHits       uint64
	negMisses     uint64
	kreduceHits   uint64
	kreduceMisses uint64
	rangeHits     uint64
	rangeMisses   uint64
	fusedHits     uint64
	fusedMisses   uint64
	fusionCuts    uint64
	kreduceCalls  uint64
	gcRuns        uint64
}

// New creates an empty Manager with no variables. Declare variables with
// AddVar before building non-constant functions.
func New() *Manager {
	m := &Manager{
		unique: newUniqueTable(uniqueInitial),
		terms:  newUniqueTable(uniqueInitial),
	}
	m.newTables()
	m.zero = m.Const(0)
	m.one = m.Const(1)
	return m
}

// AddVar declares a new variable at the end of the variable order and
// returns its index. The name is used only for diagnostics and DOT output.
func (m *Manager) AddVar(name string) int {
	m.names = append(m.names, name)
	return len(m.names) - 1
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.names) }

// VarName returns the diagnostic name of variable v.
func (m *Manager) VarName(v int) string {
	if v < 0 || v >= len(m.names) {
		return fmt.Sprintf("x%d", v)
	}
	return m.names[v]
}

// Const returns the terminal node carrying value v. NaN is rejected with a
// panic: it would break hash-consing (NaN != NaN).
func (m *Manager) Const(v float64) *Node {
	if math.IsNaN(v) {
		panic("mtbdd: NaN terminal")
	}
	if v == 0 {
		v = 0 // normalize -0 to +0
	}
	bits := math.Float64bits(v)
	h := termHash(bits)
	t := &m.terms
	i := uint64(h) & t.mask
	for probes := 0; ; probes++ {
		e := t.entries[i]
		if e.id == 0 {
			t.noteProbes(probes)
			break
		}
		if e.hash == h {
			if n := m.node(e.id); math.Float64bits(n.Value) == bits {
				t.noteProbes(probes)
				return n
			}
		}
		i = t.next(i)
	}
	n, id := m.alloc()
	*n = Node{Level: terminalLevel, id: id, Value: v}
	t.fill(i, h, id)
	return n
}

const (
	// slabBits sizes the node slabs at 8192 nodes (192 KiB each). A
	// power-of-two multiple of 64 keeps every slab's id range aligned to
	// whole bitset words, so GC's per-slab liveness scan is word-exact.
	slabBits  = 13
	slabSize  = 1 << slabBits
	slabBytes = uint64(unsafe.Sizeof(slab{}))
)

// slab is the storage of slabSize nodes: an array, so node indexes it
// with a mask and no bounds check.
type slab [slabSize]Node

// node returns the node with the given id. Nodes, the unique table and the
// computed tables hold ids, never pointers, so the runtime GC scans none of
// them. A child id names a live slab because GC keeps every node below a
// marked one; an id a table holds does because Manager.GC rebuilds the one
// from the marked nodes and empties the others.
func (m *Manager) node(id uint32) *Node {
	i := id - 1
	return &m.slabs[i>>slabBits][i&(slabSize-1)]
}

// maxSlabs is how many slabs the 32-bit id space holds whole, so the
// largest id is 2^32 − slabSize. A variable so tests can shrink the space.
var maxSlabs = math.MaxUint32 >> slabBits

// alloc hands out the next id and the storage for its node: the next cell
// of the open slab, or the first cell of a new open slab — the lowest
// index a GC released, else one past the end of the directory. A manager
// whose every slab is held aborts the operation with an *IDSpaceError
// rather than wrap to an id already in use; a GC that releases a slab
// relieves it.
func (m *Manager) alloc() (*Node, uint32) {
	if len(m.slabs) == 0 || m.slabUsed == slabSize {
		m.openSlab()
	}
	n := &m.slabs[m.open][m.slabUsed]
	m.slabUsed++
	m.created++
	return n, uint32(m.open<<slabBits + m.slabUsed)
}

// openSlab makes a fresh slab the open one, taking its storage from spare
// when Reserve left some.
func (m *Manager) openSlab() {
	s := len(m.slabs)
	if k := len(m.free); k > 0 {
		s = m.free[k-1]
		m.free = m.free[:k-1]
	} else if s == maxSlabs {
		panic(opAbort{&IDSpaceError{Created: m.created}})
	} else {
		m.slabs = append(m.slabs, nil)
	}
	if k := len(m.spare); k > 0 {
		m.slabs[s] = m.spare[k-1]
		m.spare[k-1] = nil
		m.spare = m.spare[:k-1]
	} else {
		m.slabs[s] = new(slab)
	}
	m.open, m.slabUsed = s, 0
}

// Reserve pre-allocates slab capacity for at least n additional nodes, so
// a bulk construction of known size proceeds without growth allocations.
// Capacity already free in the open slab counts; surplus spare slabs are
// kept for later. Reserving is purely an allocation hint — it never
// affects which nodes exist.
func (m *Manager) Reserve(n int) {
	free := 0
	if len(m.slabs) > 0 {
		free = slabSize - m.slabUsed
	}
	free += len(m.spare) * slabSize
	for need := n - free; need > 0; need -= slabSize {
		m.spare = append(m.spare, new(slab))
	}
}

// bitset is an id-keyed visited set for DAG walks: node id i maps to bit
// i-1. Sized once off the highest id handed out, it replaces
// map[*Node]struct{} on the hot analysis paths — no hashing, no per-entry
// allocation, and the runtime GC never scans it for pointers.
type bitset []uint64

func (m *Manager) newBitset() bitset {
	ids := len(m.slabs) << slabBits
	if m.open == len(m.slabs)-1 {
		ids -= slabSize - m.slabUsed
	}
	return make(bitset, (ids+63)/64)
}

// visit marks id and reports whether it was already marked.
func (b bitset) visit(id uint32) bool {
	i := id - 1
	w, mask := i>>6, uint64(1)<<(i&63)
	if b[w]&mask != 0 {
		return true
	}
	b[w] |= mask
	return false
}

// has reports whether id is marked.
func (b bitset) has(id uint32) bool {
	i := id - 1
	return b[i>>6]&(1<<(i&63)) != 0
}

// Zero returns the 0 terminal.
func (m *Manager) Zero() *Node { return m.zero }

// One returns the 1 terminal.
func (m *Manager) One() *Node { return m.one }

// Var returns the guard MTBDD for "variable v is 1" (element alive).
func (m *Manager) Var(v int) *Node {
	m.checkVar(v)
	return m.mk(int32(v), m.zero, m.one)
}

// NVar returns the guard MTBDD for "variable v is 0" (element failed).
func (m *Manager) NVar(v int) *Node {
	m.checkVar(v)
	return m.mk(int32(v), m.one, m.zero)
}

func (m *Manager) checkVar(v int) {
	if v < 0 || v >= len(m.names) {
		panic(fmt.Sprintf("mtbdd: variable %d out of range [0,%d)", v, len(m.names)))
	}
}

// mk returns the canonical node (level, lo, hi), applying the standard
// reduction rule lo==hi => lo. One probe of the unique table either finds
// the node or ends on the slot a new one takes. A new node carries its
// all-alive value, which is its hi child's.
func (m *Manager) mk(level int32, lo, hi *Node) *Node {
	if lo == hi {
		return lo
	}
	h := nodeHash(level, lo.id, hi.id)
	t := &m.unique
	i := uint64(h) & t.mask
	for probes := 0; ; probes++ {
		e := t.entries[i]
		if e.id == 0 {
			t.noteProbes(probes)
			break
		}
		if e.hash == h {
			if n := m.node(e.id); n.lo == lo.id && n.hi == hi.id && n.Level == level {
				t.noteProbes(probes)
				return n
			}
		}
		i = t.next(i)
	}
	m.checkInterrupt()
	m.checkBudget()
	n, id := m.alloc()
	*n = Node{Level: level, id: id, Value: hi.Value, lo: lo.id, hi: hi.id}
	t.fill(i, h, id)
	if t.count > m.peakUnique {
		m.peakUnique = t.count
	}
	return n
}

// Eval evaluates f under the given assignment. Variables beyond the length
// of assign, and variables not tested by f, do not affect the result.
// assign[v] == true means variable v is 1 (alive).
func (m *Manager) Eval(f *Node, assign []bool) float64 {
	for !f.IsTerminal() {
		v := int(f.Level)
		if v < len(assign) && !assign[v] {
			f = m.node(f.lo)
		} else {
			f = m.node(f.hi)
		}
	}
	return f.Value
}

// EvalAllAlive evaluates f with every variable set to 1: the value every
// node carries (Node.Value).
func (m *Manager) EvalAllAlive(f *Node) float64 { return f.Value }

// NodeCount returns the number of distinct nodes (including terminals)
// reachable from f.
func (m *Manager) NodeCount(f *Node) int {
	return m.countNodes(f, m.newBitset())
}

// countNodes counts nodes reachable from n that are not yet in seen,
// marking them as it goes.
func (m *Manager) countNodes(n *Node, seen bitset) int {
	if seen.visit(n.id) {
		return 0
	}
	count := 1
	if !n.IsTerminal() {
		count += m.countNodes(m.node(n.lo), seen)
		count += m.countNodes(m.node(n.hi), seen)
	}
	return count
}

// CacheStats is one operation cache's cumulative hit/miss tally. The
// counters persist across ClearCaches and GC — they count lookups over
// the Manager's lifetime, not the current cache generation.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Stats is a snapshot of Manager counters, used by the benchmark harness to
// report MTBDD sizes (paper Fig 16) and by the observability layer
// (DESIGN.md §11) for per-cache efficacy.
type Stats struct {
	Created    uint64 // total nodes ever created
	Live       int    // internal nodes currently in the unique table
	PeakUnique int    // high-water mark of the unique table

	// Per-cache hit/miss tallies for all four operation caches. Fused is
	// the computed table of the kernels (kernels.go), the plain operators
	// included.
	Neg     CacheStats
	KReduce CacheStats
	Range   CacheStats
	Fused   CacheStats

	// FusionCuts counts subproblems the fused kernels collapsed to a
	// single terminal because the zero-budget was spent — each is an
	// entire sub-MTBDD the build-then-reduce pipeline would have
	// materialized and then discarded.
	FusionCuts uint64

	// MaxProbe is the longest linear-probe run the unique table has ever
	// seen (lifetime high-water mark, surviving GC rebuilds): a direct
	// measure of hash clustering.
	MaxProbe int

	KReduceCalls uint64 // top-level KReduce invocations
	GCRuns       uint64 // completed garbage collections

	// CacheBytes is what the unique table, the terminal table and the
	// four computed tables hold right now: the first two grow with the
	// nodes they hold, the computed tables keep the size New gave them
	// (tables.go).
	CacheBytes uint64
	// NodeBytes is what the node slabs the manager holds right now take,
	// spare slabs (Reserve) included: every held slab is whole, so
	// NodeBytes over Live is the slabs' cost per live node.
	NodeBytes uint64
}

// Stats returns a snapshot of the Manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Created:      m.created,
		Live:         m.unique.count,
		PeakUnique:   m.peakUnique,
		Neg:          CacheStats{Hits: m.negHits, Misses: m.negMisses},
		KReduce:      CacheStats{Hits: m.kreduceHits, Misses: m.kreduceMisses},
		Range:        CacheStats{Hits: m.rangeHits, Misses: m.rangeMisses},
		Fused:        CacheStats{Hits: m.fusedHits, Misses: m.fusedMisses},
		FusionCuts:   m.fusionCuts,
		MaxProbe:     m.unique.maxProbe,
		KReduceCalls: m.kreduceCalls,
		GCRuns:       m.gcRuns,
		CacheBytes:   m.tableBytes(),
		NodeBytes:    m.nodeBytes(),
	}
}

// nodeBytes is the size of the slabs m holds: every directory entry GC has
// not released, and the spare ones.
func (m *Manager) nodeBytes() uint64 {
	held := len(m.slabs) - len(m.free) + len(m.spare)
	return uint64(held) * slabBytes
}

// ClearCaches empties all operation caches (but not the unique table), so
// that nothing cached outlives the nodes a following GC drops. The four
// computed tables are zeroed in place — clearing allocates nothing. The
// cumulative hit/miss counters are untouched: they are counters, not cache
// contents.
func (m *Manager) ClearCaches() { m.clearTables() }
