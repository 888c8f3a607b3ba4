package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// linkNode is s's fraction on directed link l, nil when s does not cross l.
func linkNode(s *FlowSTF, l topo.DirLinkID) *mtbdd.Node {
	i, ok := slices.BinarySearchFunc(s.Links, l, func(lf LinkFrac, l topo.DirLinkID) int { return int(lf.Link) - int(l) })
	if !ok {
		return nil
	}
	return s.Links[i].W
}

// ascending holds an STF's links to their contract: strictly ascending by
// link, every one with a node.
func ascending(s *FlowSTF) error {
	for i, lf := range s.Links {
		if lf.W == nil {
			return fmt.Errorf("link %d has no node", lf.Link)
		}
		if i > 0 && lf.Link <= s.Links[i-1].Link {
			return fmt.Errorf("link %d follows link %d", lf.Link, s.Links[i-1].Link)
		}
		if linkNode(s, lf.Link) != lf.W {
			return fmt.Errorf("a search for link %d does not find its node", lf.Link)
		}
	}
	return nil
}

// TestSTFLinksAscending: every FlowSTF's Links is strictly ascending — the
// executed, the memo-shared, the replayed and the translated — and a sealed
// list replayed into its source gives back the very nodes, in order.
func TestSTFLinksAscending(t *testing.T) {
	spec, flows := wanWorkload(t)
	v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	if sharedClasses(v) == 0 {
		t.Fatal("no class shares an STF: the fixture covers less than it claims")
	}
	multi := 0
	for i, s := range v.stfs {
		if err := ascending(s); err != nil {
			t.Fatalf("class %d (shared %v): %v", i, s.shared, err)
		}
		if len(s.Links) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no STF crosses two links: the order is never tested")
	}

	for i, s := range unseal(SealSTFs(v.e.m, v.stfs), v.e.m, flowsOf(v.stfs)) {
		if err := ascending(s); err != nil {
			t.Fatalf("replayed class %d: %v", i, err)
		}
		if err := sameUnsealed(s, v.stfs[i]); err != nil {
			t.Fatalf("replayed class %d: %v", i, err)
		}
	}

	// A domain's link IDs map to global ones in any order: reversed here.
	n := spec.Net.NumLinks()
	toGlobal := make([]topo.LinkID, n)
	for l := range toGlobal {
		toGlobal[l] = topo.LinkID(n - 1 - l)
	}
	for i, s := range v.stfs {
		g := TranslateSTF(s, toGlobal, s.Flow)
		if err := ascending(g); err != nil {
			t.Fatalf("translated class %d: %v", i, err)
		}
		if len(g.Links) != len(s.Links) {
			t.Fatalf("translated class %d: %d links, %d before", i, len(g.Links), len(s.Links))
		}
		for _, lf := range s.Links {
			if linkNode(g, topo.MakeDirLinkID(toGlobal[lf.Link.Link()], lf.Link.Dir())) != lf.W {
				t.Fatalf("translated class %d: link %d lost its node", i, lf.Link)
			}
		}
	}
}
