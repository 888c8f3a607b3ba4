package core

import (
	"fmt"
	"testing"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// sealCases is a WAN verifier's STFs in class order — global equivalence on,
// so later classes share earlier classes' STFs and distinct classes share
// nodes — between two made-up ones for what execution rarely yields: an STF
// crossing no link, and one flagged shared. The made-up ones are built in m.
func sealCases(m *mtbdd.Manager, stfs []*FlowSTF) []*FlowSTF {
	bare := &FlowSTF{Flow: stfs[0].Flow, Links: map[topo.DirLinkID]*mtbdd.Node{},
		Delivered: m.Zero(), Dropped: m.One(), InFlight: m.Zero(), Iterations: 1}
	flagged := *stfs[len(stfs)-1]
	flagged.shared = true
	return append(append([]*FlowSTF{bare}, stfs...), &flagged)
}

func flowsOf(stfs []*FlowSTF) []topo.Flow {
	flows := make([]topo.Flow, len(stfs))
	for i, s := range stfs {
		flows[i] = s.Flow
	}
	return flows
}

// sameUnsealed holds an unsealed STF to the one it stands for: every node the
// same pointer, every field equal.
func sameUnsealed(got, want *FlowSTF) error {
	if got.shared != want.shared {
		return fmt.Errorf("shared %v, want %v", got.shared, want.shared)
	}
	return sameSTF(got, want)
}

// checkUnsealed unseals prefixes of none, one and all of sealed's STFs into
// m and holds each to want.
func checkUnsealed(t *testing.T, m *mtbdd.Manager, sealed, want []*FlowSTF) {
	t.Helper()
	for _, n := range []int{0, 1, len(sealed)} {
		got := SealSTFs(sealed[:n]).Unseal(m, flowsOf(sealed[:n]))
		if len(got) != n {
			t.Fatalf("a list of %d unseals to %d STFs", n, len(got))
		}
		for i := range got {
			if err := sameUnsealed(got[i], want[i]); err != nil {
				t.Fatalf("list of %d, STF %d (%v): %v", n, i, want[i].Flow, err)
			}
		}
	}
}

// TestSealUnsealIntoSource: sealing STFs and unsealing them into the manager
// that built them gives back the very same nodes and every field, and a node
// that several STFs share is sealed once.
func TestSealUnsealIntoSource(t *testing.T) {
	spec, flows := wanWorkload(t)
	v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	if sharedClasses(v) == 0 {
		t.Fatal("no class shares an STF: the fixture covers less than it claims")
	}
	cases := sealCases(v.e.m, v.stfs)
	checkUnsealed(t, v.e.m, cases, cases)

	separate := 0
	for _, s := range cases {
		separate += SealSTFs([]*FlowSTF{s}).Snap.Len()
	}
	if whole := SealSTFs(cases).Snap.Len(); whole >= separate {
		t.Fatalf("the list seals %d nodes, its STFs one by one %d: shared nodes sealed twice", whole, separate)
	}
}

// TestSealUnsealIntoFreshManager: unsealed into a fresh manager with the same
// variable order, a sealed list is, class for class, the very nodes executing
// the classes there builds — the classes the fresh engine shares included.
func TestSealUnsealIntoFreshManager(t *testing.T) {
	spec, flows := wanWorkload(t)
	v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	fresh := buildEngine(t, spec, topo.FailLinks, 1, Options{})
	executed := make([]*FlowSTF, len(v.classes))
	for i, c := range v.classes {
		executed[i] = fresh.ExecuteFlow(c.rep)
	}
	checkUnsealed(t, fresh.m, sealCases(v.e.m, v.stfs), sealCases(fresh.m, executed))
}
