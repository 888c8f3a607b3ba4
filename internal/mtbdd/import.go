package mtbdd

import "fmt"

// Import rebuilds a foreign MTBDD — a node owned by another Manager — in
// this Manager and returns the canonical local node. It is the bridge the
// parallel verification pipeline uses to merge shard results: each worker
// executes flows in a private Manager, and the primary Manager imports the
// resulting STFs. Because both managers declare the same variables in the
// same order, the imported node has the identical structure, and
// hash-consing restores pointer-equality semantics in the destination:
// two shards that computed the same function import to the same *Node, so
// the link-local equivalence grouping of §5.3 keeps working after the
// merge.
//
// The translation is memoized in a per-destination cache keyed by the
// source node pointer (source pointers are unique across managers, so one
// cache serves any number of sources). The cache holds strong references
// to the source nodes — their addresses can therefore never be recycled
// under it — and is re-created fresh by ClearCaches/GC together with the
// other operation caches, because a destination-side GC may evict the
// cached translations from the unique table.
//
// Import only reads the source graph (Node fields are immutable after
// creation), so any number of destination managers may import from the
// same source concurrently, as long as the source Manager itself is not
// running operations at the same time.
func (m *Manager) Import(src *Node) *Node {
	if src == nil {
		return nil
	}
	// New and ClearCaches both install a fresh map, so importTbl is nil
	// only for a zero-value Manager; guard anyway rather than crash.
	if m.importTbl == nil {
		m.importTbl = make(map[*Node]*Node)
	}
	return m.importNode(src)
}

func (m *Manager) importNode(src *Node) *Node {
	if r, ok := m.importTbl[src]; ok {
		m.importHits++
		return r
	}
	m.importMisses++
	m.checkInterrupt()
	var r *Node
	if src.IsTerminal() {
		r = m.Const(src.Value)
	} else {
		if int(src.Level) >= len(m.names) {
			panic(fmt.Sprintf("mtbdd: Import of node testing variable %d into a manager with %d variables", src.Level, len(m.names)))
		}
		lo := m.importNode(src.Lo)
		hi := m.importNode(src.Hi)
		r = m.mk(src.Level, lo, hi)
	}
	m.importTbl[src] = r
	return r
}
