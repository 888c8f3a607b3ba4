package mtbdd

import "fmt"

// Snapshot is a read-only, manager-independent encoding of a set of MTBDD
// roots: every reachable node flattened into children-first order, with
// child links expressed as indices instead of pointers. It is the shared
// import base of the parallel pipeline — built once from the primary
// manager's guard layer, then replayed into any number of shard managers
// concurrently.
//
// The point is cost: a plain cross-manager Import re-walks the source DAG
// per destination (recursive DFS, one pointer-map lookup per node per
// shard). A Snapshot pays the DFS and the deduplication once; each
// destination then runs ImportSnapshot, a single linear pass over dense
// arrays with no hashing beyond the destination's own unique table. With
// P shards the guard layer is traversed once, not P times — the
// copy-on-write sharing of ISSUE 6(c): the snapshot is the shared
// read-only base, and each shard materializes (writes) nodes into its
// own arena only when it replays.
//
// A snapshot comes in two forms. As NewSnapshot returns it, it is unsealed:
// it carries a source-node index (Index), so a consumer can translate any
// encoded node — a root or an interior guard — through the table
// ImportSnapshot returns; routesim.ImportBase and internal/compose look
// guards up that way for the length of their own run. The index is keyed by
// source node pointers, and a node pointer keeps its whole slab — and
// through Lo/Hi the rest of its manager — reachable, so a snapshot that
// outlives its source must be sealed first: Seal drops the index once the
// consumer has resolved the entries it needs (the daemon's STF store keeps
// root positions). A sealed snapshot, like a decoded one, holds no reference
// to the source Manager. Neither form mutates after that — it is safe to
// share across goroutines without synchronization.
type Snapshot struct {
	// level/value/lo/hi are parallel arrays, one entry per distinct node,
	// in an order where both children of entry i precede i. Terminals
	// carry value; internal entries carry lo/hi as indices.
	level []int32
	value []float64
	lo    []uint32
	hi    []uint32
	// index maps every encoded source node to its entry, so consumers can
	// translate any root (or interior guard) to a destination node via the
	// table ImportSnapshot returns. Build-time only: nil once sealed, and on
	// a decoded snapshot.
	index map[*Node]uint32
	// maxLevel is the highest variable tested anywhere in the snapshot,
	// for destination-compatibility checking (-1 if all terminals).
	maxLevel int32
}

// NewSnapshot flattens the given roots (nil entries ignored) into a
// snapshot. Nodes shared between roots are encoded once.
func NewSnapshot(roots []*Node) *Snapshot {
	s := &Snapshot{index: make(map[*Node]uint32), maxLevel: -1}
	// Iterative post-order DFS: children are appended before their parent,
	// giving the children-first order the linear replay relies on.
	type frame struct {
		n        *Node
		expanded bool
	}
	var stack []frame
	for _, r := range roots {
		if r == nil {
			continue
		}
		stack = append(stack, frame{r, false})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := s.index[f.n]; ok && !f.expanded {
				continue
			}
			if f.n.IsTerminal() {
				s.add(f.n, 0, 0)
				continue
			}
			if f.expanded {
				s.add(f.n, s.index[f.n.Lo], s.index[f.n.Hi])
				continue
			}
			// Children first, then revisit this node to emit it.
			stack = append(stack, frame{f.n, true})
			if _, ok := s.index[f.n.Hi]; !ok {
				stack = append(stack, frame{f.n.Hi, false})
			}
			if _, ok := s.index[f.n.Lo]; !ok {
				stack = append(stack, frame{f.n.Lo, false})
			}
		}
	}
	return s
}

func (s *Snapshot) add(n *Node, lo, hi uint32) {
	if _, ok := s.index[n]; ok {
		return
	}
	s.index[n] = uint32(len(s.level))
	s.level = append(s.level, n.Level)
	s.value = append(s.value, n.Value)
	s.lo = append(s.lo, lo)
	s.hi = append(s.hi, hi)
	if !n.IsTerminal() && n.Level > s.maxLevel {
		s.maxLevel = n.Level
	}
}

// Len returns the number of distinct nodes encoded.
func (s *Snapshot) Len() int { return len(s.level) }

// Index returns the snapshot entry of a source node, if it was encoded.
// Pass the result as an index into the table ImportSnapshot returned. A
// sealed or decoded snapshot has no index and reports false for every node.
func (s *Snapshot) Index(n *Node) (uint32, bool) {
	i, ok := s.index[n]
	return i, ok
}

// Seal drops the source-node index, and with it the snapshot's only
// references into the source manager: resolve every entry you need with
// Index first. Call it before the snapshot is shared or stored.
func (s *Snapshot) Seal() { s.index = nil }

// ImportSnapshot replays a snapshot into m and returns the translation
// table: table[i] is the canonical local node for snapshot entry i, so a
// source node n maps to table[s.Index(n)]. The replay is one linear pass —
// no recursion, no per-shard DFS memo — and reserves slab capacity up
// front so a large guard layer lands in pre-allocated arenas. Like every
// node-building operation it honors the manager's interrupt hook and node
// budget.
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
