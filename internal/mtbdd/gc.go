package mtbdd

import "slices"

// GC discards every node not reachable from the given roots: the unique
// and terminal tables are rebuilt with the surviving nodes and all
// operation caches are cleared. Hash consing otherwise keeps every node
// ever created alive, which exhausts memory in long pipelines (millions
// of transient nodes arise during symbolic traffic execution).
//
// Contract: after GC, only the roots and nodes reachable from them may be
// passed to further Manager operations. Any other retained *Node would
// alias a semantically identical node created later, silently breaking the
// canonicity that pointer-equality checks (and the paper's link-local
// equivalence, §5.3) rely on; its child ids may name released slabs, or
// slabs reopened for other nodes.
func (m *Manager) GC(roots []*Node) {
	marked := m.newBitset()
	var mark func(n *Node)
	mark = func(n *Node) {
		for !marked.visit(n.id) && !n.IsTerminal() {
			mark(m.node(n.lo))
			n = m.node(n.hi) // tail-call on hi to halve recursion depth
		}
	}
	mark(m.zero)
	mark(m.one)
	for _, r := range roots {
		mark(r)
	}

	// Both tables keep only marked ids, placed by their stored hashes; no
	// node is read. Unmarked terminals go too, so their slabs can be
	// released and a later Const of their value makes a fresh node.
	m.unique.keep(marked)
	m.terms.keep(marked)
	// Empty the caches before the slabs go: their entries are ids resolved
	// through m.slabs, and none may name a released slab.
	m.ClearCaches()
	m.releaseSlabs(marked)
	m.gcRuns++
}

// releaseSlabs nils out node slabs with no marked ids so the runtime can
// reclaim them, and lists every released index in free, lowest last, for
// alloc to reopen. Slab s holds ids (s*slabSize, (s+1)*slabSize], i.e.
// mark bits [s*slabSize, (s+1)*slabSize) — whole bitset words, since
// slabSize is a multiple of 64. The open slab is kept: alloc keeps filling
// it. Transient nodes are temporally clustered, so build-then-reduce
// bursts typically die as contiguous whole slabs.
func (m *Manager) releaseSlabs(marked bitset) {
	const wordsPerSlab = slabSize / 64
	m.free = m.free[:0]
	for s := len(m.slabs) - 1; s >= 0; s-- {
		if s == m.open {
			continue
		}
		if m.slabs[s] != nil {
			lo := s * wordsPerSlab
			if slices.ContainsFunc(marked[lo:lo+wordsPerSlab], func(w uint64) bool { return w != 0 }) {
				continue
			}
			m.slabs[s] = nil
		}
		m.free = append(m.free, s)
	}
}

// GCRuns reports how many garbage collections the manager has performed.
func (m *Manager) GCRuns() uint64 { return m.gcRuns }
