package mtbdd

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// buildSnapshotFixtures creates a manager with a few interleaved functions
// exercising sharing, terminals, and multi-variable structure.
func buildSnapshotFixtures(t *testing.T) (*Manager, []*Node) {
	t.Helper()
	m := New()
	for i := 0; i < 8; i++ {
		m.AddVar("x")
	}
	return m, snapshotFixtures(m)
}

// snapshotFixtures builds the fixture functions in m, which declares at
// least 8 variables.
func snapshotFixtures(m *Manager) []*Node {
	a := m.Var(0)
	b := m.Mul(m.Var(1), m.Const(0.5))
	c := m.Add(a, b)
	d := m.Min(c, m.ITE(m.Var(3), m.Const(2), b))
	e := m.KReduce(m.Add(d, m.Var(7)), 2)
	return []*Node{a, b, c, d, e, m.Zero(), m.One(), m.Const(3.25)}
}

// TestSnapshotReplayMatchesNativeBuild pins the core contract: replaying a
// snapshot into a destination manager yields, at every root's position, the
// very node building the same function in the destination does.
func TestSnapshotReplayMatchesNativeBuild(t *testing.T) {
	_, roots := buildSnapshotFixtures(t)
	snap, at := NewSnapshot(roots)
	if snap.Len() == 0 {
		t.Fatal("empty snapshot from non-empty roots")
	}
	if len(at) != len(roots) {
		t.Fatalf("%d positions for %d roots", len(at), len(roots))
	}

	dst := New()
	for i := 0; i < 8; i++ {
		dst.AddVar("x")
	}
	table := dst.ImportSnapshot(snap)
	if len(table) != snap.Len() {
		t.Fatalf("table has %d entries, snapshot %d", len(table), snap.Len())
	}
	for ri, want := range snapshotFixtures(dst) {
		if got := table[at[ri]]; got != want {
			t.Fatalf("root %d: replay produced %p, building it in the destination %p", ri, got, want)
		}
	}
}

// TestSnapshotSharedNodesEncodedOnce checks deduplication: encoding the
// same root twice (and roots sharing subgraphs) never duplicates entries.
func TestSnapshotSharedNodesEncodedOnce(t *testing.T) {
	src, roots := buildSnapshotFixtures(t)
	once, _ := NewSnapshot(roots)
	doubled, at := NewSnapshot(append(append([]*Node{}, roots...), roots...))
	if once.Len() != doubled.Len() {
		t.Fatalf("duplicated roots grew the snapshot: %d vs %d", once.Len(), doubled.Len())
	}
	for i := range roots {
		if at[i] != at[len(roots)+i] {
			t.Fatalf("root %d has two positions: %d and %d", i, at[i], at[len(roots)+i])
		}
	}
	// Every distinct reachable node appears exactly once.
	distinct, seen := 0, src.newBitset()
	for _, r := range roots {
		distinct += countNodes(r, seen)
	}
	if once.Len() != distinct {
		t.Fatalf("snapshot has %d entries, %d distinct nodes reachable", once.Len(), distinct)
	}
}

// TestSnapshotNilRootsAndEmpty covers the degenerate inputs: no roots make
// an empty snapshot, and a nil root — which no position could stand for —
// is a caller's bug that panics.
func TestSnapshotNilRootsAndEmpty(t *testing.T) {
	empty, at := NewSnapshot(nil)
	if empty.Len() != 0 || len(at) != 0 {
		t.Fatalf("empty snapshot has %d entries, %d positions", empty.Len(), len(at))
	}
	dst := New()
	if table := dst.ImportSnapshot(empty); len(table) != 0 {
		t.Fatalf("replay of empty snapshot returned %d entries", len(table))
	}

	m := New()
	m.AddVar("x")
	defer func() {
		if recover() == nil {
			t.Fatal("a nil root was given a position")
		}
	}()
	NewSnapshot([]*Node{m.Var(0), nil})
}

// TestSnapshotVariableCheck pins the panic on an under-declared
// destination manager.
func TestSnapshotVariableCheck(t *testing.T) {
	m := New()
	for i := 0; i < 4; i++ {
		m.AddVar("x")
	}
	snap, _ := NewSnapshot([]*Node{m.Var(3)})
	dst := New()
	dst.AddVar("x") // only 1 variable; snapshot tests variable 3
	defer func() {
		if recover() == nil {
			t.Fatal("ImportSnapshot into an under-declared manager must panic")
		}
	}()
	dst.ImportSnapshot(snap)
}

// TestReserve checks that reserved slabs are consumed by later node
// construction and that reserving is invisible to the node graph.
func TestReserve(t *testing.T) {
	m := New()
	m.AddVar("x")
	m.Reserve(3 * slabSize)
	if len(m.spare) == 0 {
		t.Fatal("Reserve left no spare slabs")
	}
	before := len(m.spare)
	// Burn through enough nodes to consume at least one spare slab.
	f := m.Var(0)
	for i := 0; i < slabSize+2; i++ {
		f = m.Add(f, m.Const(float64(i)))
	}
	if len(m.spare) >= before {
		t.Fatalf("alloc did not consume spare slabs (%d before, %d after)", before, len(m.spare))
	}
	// Reserving with enough free capacity must be a no-op.
	m2 := New()
	m2.Reserve(1)
	if len(m2.spare) != 0 {
		t.Fatalf("Reserve(1) on a fresh manager allocated %d spare slabs", len(m2.spare))
	}
}

// snapshotOfDroppedManager builds a manager, snapshots its fixture roots and
// returns the snapshot with the roots' positions and structural hashes — and
// nothing else of the manager: a finalizer on its first node slab reports on
// freed when the runtime reclaims it. The frame that held the manager is gone
// when this returns.
//
//go:noinline
func snapshotOfDroppedManager(t *testing.T, freed chan<- struct{}) (snap *Snapshot, at []uint32, hashes []uint64) {
	m, roots := buildSnapshotFixtures(t)
	runtime.SetFinalizer(&m.slabs[0][0], func(*Node) { close(freed) })
	snap, at = NewSnapshot(roots)
	h := NewHasher()
	for _, r := range roots {
		hashes = append(hashes, h.Hash(r))
	}
	return snap, at, hashes
}

// TestSealedSnapshotReleasesSource is the memory contract of NewSnapshot:
// every snapshot is sealed — it keeps no node pointer — so one that outlives
// its source lets the runtime reclaim the source's node slabs, and still
// replays to structurally equal roots.
func TestSealedSnapshotReleasesSource(t *testing.T) {
	freed := make(chan struct{})
	snap, at, hashes := snapshotOfDroppedManager(t, freed)
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("a snapshot keeps its source manager's first slab reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	dst := New()
	for i := 0; i < 8; i++ {
		dst.AddVar("x")
	}
	table := dst.ImportSnapshot(snap)
	h := NewHasher()
	for ri, i := range at {
		if got := h.Hash(table[i]); got != hashes[ri] {
			t.Errorf("root %d: replayed hash %#x, source hash %#x", ri, got, hashes[ri])
		}
	}
}

// TestSnapshotSubIsTheSnapshotOfItsRoots: the sub-snapshot of any set of
// positions is, entry for entry, the snapshot NewSnapshot makes of the nodes
// they stand for — so a stored list re-derives each member's own frame byte
// for byte — and Sizes counts exactly its entries.
func TestSnapshotSubIsTheSnapshotOfItsRoots(t *testing.T) {
	_, roots := buildSnapshotFixtures(t)
	whole, at := NewSnapshot(roots)
	var groups [][]uint32
	for _, pick := range [][]int{{0}, {4}, {3, 1}, {4, 0, 4}, {6, 5, 7}, {}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		var nodes []*Node
		var pos []uint32
		for _, i := range pick {
			nodes = append(nodes, roots[i])
			pos = append(pos, at[i])
		}
		want, wantAt := NewSnapshot(nodes)
		got, gotAt := whole.Sub(pos)
		var wb, gb bytes.Buffer
		if err := want.Encode(&wb); err != nil {
			t.Fatal(err)
		}
		if err := got.Encode(&gb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) || fmt.Sprint(wantAt) != fmt.Sprint(gotAt) {
			t.Fatalf("roots %v: Sub encodes %d bytes at %v, NewSnapshot %d bytes at %v", pick, gb.Len(), gotAt, wb.Len(), wantAt)
		}
		groups = append(groups, pos)
	}
	for g, n := range whole.Sizes(groups) {
		if sub, _ := whole.Sub(groups[g]); n != sub.Len() {
			t.Fatalf("group %d: Sizes says %d entries, its Sub holds %d", g, n, sub.Len())
		}
	}
}
