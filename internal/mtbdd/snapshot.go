package mtbdd

import "fmt"

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
	// level/value/lo/hi are parallel arrays, one entry per distinct node,
	// in an order where both children of entry i precede i. Terminals
	// carry value; internal entries carry lo/hi as indices.
	level []int32
	value []float64
	lo    []uint32
	hi    []uint32
	// maxLevel is the highest variable tested anywhere in the snapshot,
	// for destination-compatibility checking (-1 if all terminals).
	maxLevel int32
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
		var lo, hi uint32
		if !n.IsTerminal() {
			lo, hi = visit(n.Lo), visit(n.Hi)
			s.maxLevel = max(s.maxLevel, n.Level)
		}
		i := uint32(len(s.level))
		index[n] = i
		s.level = append(s.level, n.Level)
		s.value = append(s.value, n.Value)
		s.lo = append(s.lo, lo)
		s.hi = append(s.hi, hi)
		return i
	}
	at = make([]uint32, len(roots))
	for i, r := range roots {
		at[i] = visit(r)
	}
	return s, at
}

// Len returns the number of distinct nodes encoded.
func (s *Snapshot) Len() int { return len(s.level) }

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
	m.Reserve(len(s.level))
	table := make([]*Node, len(s.level))
	for i := range s.level {
		if s.level[i] == terminalLevel {
			table[i] = m.Const(s.value[i])
		} else {
			table[i] = m.mk(s.level[i], table[s.lo[i]], table[s.hi[i]])
		}
	}
	return table
}
