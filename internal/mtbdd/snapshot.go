package mtbdd

import (
	"fmt"
	"math"
	"slices"
)

// Snapshot is a read-only, manager-independent encoding of a set of MTBDD
// roots: every reachable node flattened into children-first order, with
// child links expressed as indices instead of pointers. It is the one way a
// node changes managers — border guards and STFs between compose's domains,
// the daemon's STF store, on disk too (codec.go), and a route-simulation
// result's guards into a fresh manager (routesim.ImportBase).
//
// The source DAG is walked and deduplicated once, by NewSnapshot; each
// destination then runs ImportSnapshot, a single linear pass over dense
// arrays with no hashing beyond the destination's own unique table, so one
// snapshot replayed into P managers costs one walk, not P.
//
// A snapshot holds no node pointer: NewSnapshot hands each root's position
// back to its caller and keeps nothing of the source manager, so a snapshot
// that outlives its source — a stored STF, a sealed list crossing goroutines —
// never keeps that manager's slabs reachable. It never mutates after
// NewSnapshot returns and is safe to share across goroutines without
// synchronization.
type Snapshot struct {
	// ents holds one entry per distinct node, in an order where both
	// children of entry i precede i.
	ents []snapEntry
	// maxLevel is the highest variable tested anywhere in the snapshot,
	// for destination-compatibility checking (-1 if all terminals).
	maxLevel int32
}

// snapEntry is one node of a snapshot, 12 bytes. An internal entry holds
// its children's indices in lo and hi; a terminal, which has no children,
// holds its value's bits there (low word in lo).
type snapEntry struct {
	level  int32
	lo, hi uint32
}

func terminalEntry(v float64) snapEntry {
	bits := math.Float64bits(v)
	return snapEntry{level: terminalLevel, lo: uint32(bits), hi: uint32(bits >> 32)}
}

// value is a terminal entry's value.
func (e snapEntry) value() float64 {
	return math.Float64frombits(uint64(e.hi)<<32 | uint64(e.lo))
}

// NewSnapshot flattens the given roots (none may be nil) into a snapshot and
// returns with it each root's position: roots[i] replays to table[at[i]] of
// the table ImportSnapshot returns. Nodes shared between roots are encoded
// once.
func NewSnapshot(roots []*Node) (s *Snapshot, at []uint32) {
	s = &Snapshot{maxLevel: -1}
	// The walk's own index from source node to entry; it dies with this call.
	index := make(map[*Node]uint32, len(roots))
	// Post-order, Lo before Hi: both children of an entry precede it, the
	// order the linear replay relies on. The depth is bounded by the
	// variable count.
	var visit func(n *Node) uint32
	visit = func(n *Node) uint32 {
		if i, ok := index[n]; ok {
			return i
		}
		// An internal node's all-alive value is rebuilt by the replay's mk,
		// so the entry does not record it.
		e := terminalEntry(n.Value)
		if !n.IsTerminal() {
			e = snapEntry{level: n.Level, lo: visit(n.Lo), hi: visit(n.Hi)}
			s.maxLevel = max(s.maxLevel, n.Level)
		}
		i := uint32(len(s.ents))
		index[n] = i
		s.ents = append(s.ents, e)
		return i
	}
	at = make([]uint32, len(roots))
	for i, r := range roots {
		at[i] = visit(r)
	}
	// A snapshot is kept, often long: hold no room for entries it will
	// never append.
	if cap(s.ents) > len(s.ents) {
		s.ents = slices.Clone(s.ents)
	}
	return s, at
}

// Len returns the number of distinct nodes encoded.
func (s *Snapshot) Len() int { return len(s.ents) }

// Sub is the snapshot of what the given positions reach, in the order
// NewSnapshot gives the nodes they stand for — so a sub-snapshot of one
// sealed STF is byte for byte the snapshot sealing it alone makes — with each
// position's place in it.
func (s *Snapshot) Sub(roots []uint32) (sub *Snapshot, at []uint32) {
	sub = &Snapshot{maxLevel: -1}
	index := make(map[uint32]uint32, len(roots))
	var visit func(i uint32) uint32
	visit = func(i uint32) uint32 {
		if j, ok := index[i]; ok {
			return j
		}
		e := s.ents[i]
		if e.level != terminalLevel {
			e.lo = visit(e.lo)
			e.hi = visit(e.hi)
			sub.maxLevel = max(sub.maxLevel, e.level)
		}
		j := uint32(len(sub.ents))
		index[i] = j
		sub.ents = append(sub.ents, e)
		return j
	}
	at = make([]uint32, len(roots))
	for i, r := range roots {
		at[i] = visit(r)
	}
	if cap(sub.ents) > len(sub.ents) {
		sub.ents = slices.Clone(sub.ents)
	}
	return sub, at
}

// Sizes returns, per group of positions, how many entries the group reaches:
// the length of its Sub, for all groups in one pass of marks.
func (s *Snapshot) Sizes(groups [][]uint32) []int {
	mark := make([]uint32, len(s.ents))
	out := make([]int, len(groups))
	var g int
	var visit func(i uint32)
	visit = func(i uint32) {
		if mark[i] == uint32(g+1) {
			return
		}
		mark[i] = uint32(g + 1)
		out[g]++
		if e := s.ents[i]; e.level != terminalLevel {
			visit(e.lo)
			visit(e.hi)
		}
	}
	for g = range groups {
		for _, r := range groups[g] {
			visit(r)
		}
	}
	return out
}

// ImportSnapshot replays a snapshot into m and returns the translation
// table: table[i] is the canonical local node for snapshot entry i, so root
// i of NewSnapshot maps to table[at[i]]. The replay is one linear pass — no
// recursion, no memo — and reserves slab capacity up front so a large
// snapshot lands in pre-allocated arenas. Like every node-building operation
// it honors the manager's interrupt hook and node budget.
//
// m must declare at least as many variables as the snapshot tests; the
// construction is the same hash-consed mk the original nodes went
// through, so two managers with the same variable order replay to
// structurally identical, canonical graphs.
func (m *Manager) ImportSnapshot(s *Snapshot) []*Node {
	if int(s.maxLevel) >= len(m.names) {
		panic(fmt.Sprintf("mtbdd: ImportSnapshot tests variable %d, manager has %d variables", s.maxLevel, len(m.names)))
	}
	m.Reserve(len(s.ents))
	table := make([]*Node, len(s.ents))
	for i, e := range s.ents {
		if e.level == terminalLevel {
			table[i] = m.Const(e.value())
		} else {
			table[i] = m.mk(e.level, table[e.lo], table[e.hi])
		}
	}
	return table
}
