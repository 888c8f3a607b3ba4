package routesim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

// collectGuards gathers every guard of a result in guardRefs order, which
// a result and its clones share.
func collectGuards(r *Result) []*mtbdd.Node {
	var out []*mtbdd.Node
	r.guardRefs(func(n **mtbdd.Node) { out = append(out, *n) })
	return out
}

// TestImportBaseMatchesImportInto pins the copy-on-write base's contract:
// cloning through the shared snapshot yields, candidate for candidate, the
// very guards a fresh route simulation computes in the destination manager.
// The two results are walked in structural lockstep.
func TestImportBaseMatchesImportInto(t *testing.T) {
	spec, res := motivating(t, 2)
	base := res.NewImportBase()
	if base.NumNodes() == 0 {
		t.Fatal("empty import base from a non-trivial result")
	}

	dst := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 2)
	viaBase := base.ImportInto(dst)
	viaRun, err := Run(dst, spec.Configs)
	if err != nil {
		t.Fatal(err)
	}

	compared := 0
	check := func(where string, a, b *mtbdd.Node) {
		t.Helper()
		if a != b {
			t.Fatalf("%s: snapshot clone %p != fresh route simulation %p", where, a, b)
		}
		compared++
	}
	for ri := range viaBase.IGP.routes {
		for dest, routes := range viaBase.IGP.routes[ri] {
			other := viaRun.IGP.routes[ri][dest]
			for i := range routes {
				check("igp route", routes[i].Guard, other[i].Guard)
			}
		}
		for dest, g := range viaBase.IGP.reach[ri] {
			check("igp reach", g, viaRun.IGP.reach[ri][dest])
		}
	}
	for ri, rib := range viaBase.BGP.RIBs {
		for pfx, cands := range rib {
			other := viaRun.BGP.RIBs[ri][pfx]
			for i := range cands {
				check("bgp cand", cands[i].Guard, other[i].Guard)
			}
		}
	}
	for ri, pols := range viaBase.SR {
		for i := range pols {
			for j := range pols[i].Paths {
				check("sr path", pols[i].Paths[j].Guard, viaRun.SR[ri][i].Paths[j].Guard)
			}
		}
	}
	for ri, sts := range viaBase.Statics {
		for i := range sts {
			check("static", sts[i].Guard, viaRun.Statics[ri][i].Guard)
		}
	}
	if compared == 0 {
		t.Fatal("no guards compared")
	}
	if viaBase.Vars != dst || viaBase.BGP.Converged != res.BGP.Converged {
		t.Fatal("clone metadata lost")
	}
}

// TestImportBaseConcurrentClones exercises the read-only-sharing claim:
// many workers cloning from one base concurrently (the parallel
// pipeline's setup pattern) must each get a correct private copy. Run
// under -race this doubles as the data-race check.
func TestImportBaseConcurrentClones(t *testing.T) {
	spec, res := motivating(t, 2)
	base := res.NewImportBase()
	srcGuards := collectGuards(res)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	clones := make([]*Result, workers)
	fvs := make([]*FailVars, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fvs[w] = NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 2)
			clones[w] = base.ImportInto(fvs[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Every clone must agree with the source guard-for-guard on a few
	// scenarios (structural equality across managers via evaluation).
	scenarios := [][]topo.LinkID{nil, {0}, {1}, {0, 1}}
	for w := 0; w < workers; w++ {
		got := collectGuards(clones[w])
		if len(got) != len(srcGuards) {
			t.Fatalf("worker %d: %d guards, source has %d", w, len(got), len(srcGuards))
		}
		for i := range got {
			for _, sc := range scenarios {
				sv := res.Vars.M.Eval(srcGuards[i], res.Vars.Scenario(sc, nil))
				cv := fvs[w].M.Eval(got[i], fvs[w].Scenario(sc, nil))
				if sv != cv {
					t.Fatalf("worker %d guard %d scenario %v: %v vs %v", w, i, sc, sv, cv)
				}
			}
		}
	}
}

// sealedIGPOfDroppedManager computes IS-IS on a manager nothing else
// references, with a finalizer on its first node slab, and returns the
// result sealed.
func sealedIGPOfDroppedManager(spec *config.Spec, freed chan<- struct{}) *ImportBase {
	fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 2)
	// The zero terminal is the manager's first node: the start of its
	// first slab.
	runtime.SetFinalizer(fv.M.Zero(), func(*mtbdd.Node) { close(freed) })
	return SealIGP(ComputeIGP(fv))
}

// TestSealedIGPReleasesSource is the memory contract of the IS-IS result
// the daemon carries from version to version: sealed, it holds no node,
// so the manager that computed it is reclaimed while the seal lives on —
// and the seal still replays, into a FailVars over another build of the
// same topology, to the very guards ComputeIGP builds there, with the
// fingerprint the fresh result hashes to. The network is the motivating
// example's, as in mtbdd's TestSealedSnapshotReleasesSource: the runtime
// scans a large object in 128 KB pieces, and a slab filled past its first
// piece points into itself from another, which keeps a slab with a
// finalizer alive on its own.
func TestSealedIGPReleasesSource(t *testing.T) {
	freed := make(chan struct{})
	base := sealedIGPOfDroppedManager(mustSpec(t, paperex.MotivatingSpec), freed)
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("a sealed IS-IS result keeps the manager that computed it reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}

	dst := NewFailVars(mtbdd.New(), mustSpec(t, paperex.MotivatingSpec).Net, topo.FailLinks, 2)
	got := &Result{IGP: base.ImportInto(dst).IGP}
	want := &Result{IGP: ComputeIGP(dst)}
	gotGuards, wantGuards := collectGuards(got), collectGuards(want)
	if len(gotGuards) == 0 || len(gotGuards) != len(wantGuards) {
		t.Fatalf("replayed %d guards, ComputeIGP built %d", len(gotGuards), len(wantGuards))
	}
	for i := range gotGuards {
		if gotGuards[i] != wantGuards[i] {
			t.Fatalf("guard %d: replayed node differs from ComputeIGP's", i)
		}
	}
	if h := want.IGP.hash(mtbdd.NewHasher()); base.IGPHash() != h {
		t.Fatalf("sealed fingerprint %#x, the replayed result hashes to %#x", base.IGPHash(), h)
	}
}

// TestImportIntoKeyedByTopology: a base replays into FailVars over any
// parse of its topology, and refuses one whose links differ in a cost.
func TestImportIntoKeyedByTopology(t *testing.T) {
	spec, res := motivating(t, 2)
	base := res.NewImportBase()
	reparsed := mustSpec(t, paperex.MotivatingSpec)
	if reparsed.Net == spec.Net {
		t.Fatal("a re-parse shares the network")
	}
	base.ImportInto(NewFailVars(mtbdd.New(), reparsed.Net, topo.FailLinks, 2))

	reparsed.Net.Links[0].CostAB++
	reparsed.Net.Links[0].CostBA++
	defer func() {
		if recover() == nil {
			t.Fatal("ImportInto accepted a FailVars over a topology with another link cost")
		}
	}()
	base.ImportInto(NewFailVars(mtbdd.New(), reparsed.Net, topo.FailLinks, 2))
}
