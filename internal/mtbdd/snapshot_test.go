package mtbdd

import (
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
	a := m.Var(0)
	b := m.Mul(m.Var(1), m.Const(0.5))
	c := m.Add(a, b)
	d := m.Min(c, m.ITE(m.Var(3), m.Const(2), b))
	e := m.KReduce(m.Add(d, m.Var(7)), 2)
	return m, []*Node{a, b, c, d, e, m.Zero(), m.One(), m.Const(3.25)}
}

// TestSnapshotReplayMatchesImport pins the core contract: replaying a
// snapshot into a destination manager yields exactly the node the
// recursive cross-manager Import would, for every root.
func TestSnapshotReplayMatchesImport(t *testing.T) {
	src, roots := buildSnapshotFixtures(t)
	_ = src
	snap := NewSnapshot(roots)
	if snap.Len() == 0 {
		t.Fatal("empty snapshot from non-empty roots")
	}

	dst := New()
	for i := 0; i < 8; i++ {
		dst.AddVar("x")
	}
	table := dst.ImportSnapshot(snap)
	if len(table) != snap.Len() {
		t.Fatalf("table has %d entries, snapshot %d", len(table), snap.Len())
	}
	for ri, r := range roots {
		i, ok := snap.Index(r)
		if !ok {
			t.Fatalf("root %d missing from snapshot index", ri)
		}
		if got, want := table[i], dst.Import(r); got != want {
			t.Fatalf("root %d: replay produced %p, Import produced %p", ri, got, want)
		}
	}
}

// TestSnapshotSharedNodesEncodedOnce checks deduplication: encoding the
// same root twice (and roots sharing subgraphs) never duplicates entries.
func TestSnapshotSharedNodesEncodedOnce(t *testing.T) {
	src, roots := buildSnapshotFixtures(t)
	once := NewSnapshot(roots)
	doubled := NewSnapshot(append(append([]*Node{}, roots...), roots...))
	if once.Len() != doubled.Len() {
		t.Fatalf("duplicated roots grew the snapshot: %d vs %d", once.Len(), doubled.Len())
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

// TestSnapshotNilRootsAndEmpty covers the degenerate inputs.
func TestSnapshotNilRootsAndEmpty(t *testing.T) {
	empty := NewSnapshot(nil)
	if empty.Len() != 0 {
		t.Fatalf("empty snapshot has %d entries", empty.Len())
	}
	dst := New()
	if table := dst.ImportSnapshot(empty); len(table) != 0 {
		t.Fatalf("replay of empty snapshot returned %d entries", len(table))
	}

	m := New()
	m.AddVar("x")
	snap := NewSnapshot([]*Node{nil, m.Var(0), nil})
	if snap.Len() != 3 { // zero, one, the var node
		t.Fatalf("nil-tolerant snapshot has %d entries, want 3", snap.Len())
	}
}

// TestSnapshotVariableCheck pins the panic on an under-declared
// destination manager.
func TestSnapshotVariableCheck(t *testing.T) {
	m := New()
	for i := 0; i < 4; i++ {
		m.AddVar("x")
	}
	snap := NewSnapshot([]*Node{m.Var(3)})
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
// returns the snapshot with the roots' entries and structural hashes — and
// nothing else of the manager: a finalizer on its first node slab reports on
// freed when the runtime reclaims it. The frame that held the manager is gone
// when this returns.
//
//go:noinline
func snapshotOfDroppedManager(t *testing.T, seal bool, freed chan<- struct{}) (snap *Snapshot, at []uint32, hashes []uint64) {
	m, roots := buildSnapshotFixtures(t)
	runtime.SetFinalizer(&m.slabs[0][0], func(*Node) { close(freed) })
	snap = NewSnapshot(roots)
	h := NewHasher()
	for _, r := range roots {
		i, ok := snap.Index(r)
		if !ok {
			t.Fatal("root missing from the unsealed index")
		}
		at = append(at, i)
		hashes = append(hashes, h.Hash(r))
	}
	if seal {
		snap.Seal()
		if _, ok := snap.Index(roots[0]); ok {
			t.Fatal("a sealed snapshot still resolves source nodes")
		}
	}
	return snap, at, hashes
}

// TestSealedSnapshotReleasesSource is the memory contract of Seal: the
// build-time index is the only thing tying a snapshot to the manager it was
// taken from, so a sealed snapshot that outlives its source lets the runtime
// reclaim the source's node slabs — and still replays to structurally equal
// roots. The unsealed form is the control: its index keeps them reachable.
func TestSealedSnapshotReleasesSource(t *testing.T) {
	collected := func(freed <-chan struct{}, wait time.Duration) bool {
		deadline := time.After(wait)
		for {
			runtime.GC()
			runtime.GC()
			select {
			case <-freed:
				return true
			case <-deadline:
				return false
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	freed := make(chan struct{})
	unsealed, _, _ := snapshotOfDroppedManager(t, false, freed)
	if collected(freed, 200*time.Millisecond) {
		t.Fatal("the source slab was reclaimed under an unsealed snapshot: the control does not pin")
	}
	runtime.KeepAlive(unsealed)

	freed = make(chan struct{})
	snap, at, hashes := snapshotOfDroppedManager(t, true, freed)
	if !collected(freed, 10*time.Second) {
		t.Fatal("a sealed snapshot keeps its source manager's first slab reachable")
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
