// STFs that change managers, and the check engine of compositional
// verification (DESIGN.md §17).
//
// A finished STF leaves the manager that built it in one form only: a
// SealedSTFs list — one mtbdd.Snapshot of every node of the list and, per
// STF, the positions of its roots. A compose domain seals the classes it
// contained, and the daemon's store the classes each build executed. A
// session replays the snapshot into the destination manager, where
// hash-consing restores canonical node identity: a replayed STF and a
// natively executed STF of the same function are the same *Node, so
// aggregation, scans and reports cannot tell where a class ran.
package core

import (
	"slices"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// SealedSTFs is a list of finished FlowSTFs in manager-independent form. It
// holds no node pointer, so it outlives the manager it was sealed in and may
// cross goroutines; it is read-only once sealed.
type SealedSTFs struct {
	Snap *mtbdd.Snapshot
	STFs []SealedSTF
}

// SealedSTF is one STF of a sealed list: a FlowSTF without its flow, each node
// replaced by its snapshot position. Roots holds the positions of Delivered,
// Dropped and InFlight, then of each link's fraction in Links order, which is
// ascending.
type SealedSTF struct {
	Links      []topo.DirLinkID
	Roots      []uint32
	Iterations int
	shared     bool
}

// SealSTFs seals stfs, whose nodes are m's, in order. It only reads their
// nodes.
func SealSTFs(m *mtbdd.Manager, stfs []*FlowSTF) *SealedSTFs {
	l := &SealedSTFs{STFs: make([]SealedSTF, len(stfs))}
	var roots []*mtbdd.Node
	for i, s := range stfs {
		links := make([]topo.DirLinkID, len(s.Links))
		roots = append(roots, s.Delivered, s.Dropped, s.InFlight)
		for j, lf := range s.Links {
			links[j] = lf.Link
			roots = append(roots, lf.W)
		}
		l.STFs[i] = SealedSTF{Links: links, Iterations: s.Iterations, shared: s.shared}
	}
	var at []uint32
	l.Snap, at = mtbdd.NewSnapshot(m, roots)
	for i := range l.STFs {
		n := 3 + len(l.STFs[i].Links)
		l.STFs[i].Roots, at = at[:n:n], at[n:]
	}
	return l
}

// sealedList is what a carrier stores and a session reads: a sealed list of
// STFs or of loads.
type sealedList interface {
	comparable
	snapshot() *mtbdd.Snapshot
}

func (l *SealedSTFs) snapshot() *mtbdd.Snapshot { return l.Snap }

// session is one stage's use of the carrier's stored lists of one kind — the
// build's STFs (assemble, and compose's sealed lists there too) or a Check's
// loads (summed): the keys it carried, the keys of what it built, and each
// list it read, replayed once.
type session[L sealedList] struct {
	e       *Engine
	carried []routesim.Fingerprint
	keys    []routesim.Fingerprint
	tables  map[L][]*mtbdd.Node
}

func newSession[L sealedList](e *Engine) session[L] {
	return session[L]{e: e, tables: make(map[L][]*mtbdd.Node)}
}

// table is the node in the engine's manager of every snapshot position of l:
// core's one cross-manager copy, of sealed STFs and sealed loads alike. It is
// built under the manager's budget and interrupt like any node-building
// operation, so it is read only inside a governed step (ladder); once built,
// it is pinned (Engine.pinned) until the session ends, so a collection inside
// the stage leaves it readable and no list is replayed twice.
func (s *session[L]) table(l L) []*mtbdd.Node {
	t, ok := s.tables[l]
	if !ok {
		t = s.e.m.ImportSnapshot(l.snapshot())
		s.tables[l] = t
		s.e.pinned = append(s.e.pinned, t...)
	}
	return t
}

// end unpins what the session pinned: the stage is over.
func (s *session[L]) end() { s.e.pinned = nil }

// stf is STF i of the list, read off its table t, as flow's.
func (l *SealedSTFs) stf(t []*mtbdd.Node, i int, flow topo.Flow) *FlowSTF {
	s := &l.STFs[i]
	stf := &FlowSTF{
		Flow:       flow,
		Links:      make([]LinkFrac, len(s.Links)),
		Delivered:  t[s.Roots[0]],
		Dropped:    t[s.Roots[1]],
		InFlight:   t[s.Roots[2]],
		Iterations: s.Iterations,
		shared:     s.shared,
	}
	for j, dl := range s.Links {
		stf.Links[j] = LinkFrac{Link: dl, W: t[s.Roots[3+j]]}
	}
	return stf
}

// fits is whether STF i of the list can be read in e: its variables are
// e's, its links e's network's. A stale or corrupt stored entry does not
// fit, and is never replayed.
func (l *SealedSTFs) fits(e *Engine, i int) bool {
	if int(l.Snap.MaxLevel()) >= e.m.NumVars() {
		return false
	}
	for _, dl := range l.STFs[i].Links {
		if dl < 0 || int(dl) >= 2*e.net.NumLinks() {
			return false
		}
	}
	return true
}

// Len is the number of snapshot entries the list holds.
func (l *SealedSTFs) Len() int { return l.Snap.Len() }

// Sizes is, per STF, the snapshot entries its roots reach: the length of the
// list sealing it alone.
func (l *SealedSTFs) Sizes() []int {
	roots := make([][]uint32, len(l.STFs))
	for i, s := range l.STFs {
		roots[i] = s.Roots
	}
	return l.Snap.Sizes(roots)
}

// Sub is the list of STFs idx, in that order, holding only the snapshot
// entries they reach: l.Sub([]int{i}) is the list sealing STF i alone makes,
// entry for entry (mtbdd.Snapshot.Sub).
func (l *SealedSTFs) Sub(idx []int) *SealedSTFs {
	var roots []uint32
	for _, i := range idx {
		roots = append(roots, l.STFs[i].Roots...)
	}
	out := &SealedSTFs{STFs: make([]SealedSTF, len(idx))}
	var at []uint32
	out.Snap, at = l.Snap.Sub(roots)
	for j, i := range idx {
		s := l.STFs[i]
		n := len(s.Roots)
		s.Roots, at = at[:n:n], at[n:]
		out.STFs[j] = s
	}
	return out
}

// NewAssembledVerifier builds a Verifier from pre-executed class STFs.
//
// flows is the full input flow list; it is classified on e exactly as
// NewVerifier would (e must therefore carry the same ClassifyPrefixes the
// coordinator used for GlobalClasses). sealed[j] holds the finished STFs,
// with global link IDs, of the classes at[j] lists in class order; a class no
// list holds is beyond the domains' precision limit and is executed natively
// on e through the standard governed ladder (e's route-sim result must then
// cover the whole network).
func NewAssembledVerifier(e *Engine, flows []topo.Flow, sealed []*SealedSTFs, at [][]int) *Verifier {
	v := newVerifier(e, flows)
	span := e.opts.Obs.Span("execute/assemble")
	defer span.End()
	v.assemble(sealed, at)
	return v
}

// TranslateSTF re-keys a domain-local FlowSTF's links to global
// directed-link IDs via toGlobal (indexed by subnet LinkID) and puts them
// back in ascending order, leaving the nodes untouched in their owning
// manager, and stamps the global view of the executed flow (the domain ran
// it under a subnet-local ingress ID). The result is what a domain seals
// for NewAssembledVerifier.
func TranslateSTF(s *FlowSTF, toGlobal []topo.LinkID, flow topo.Flow) *FlowSTF {
	out := &FlowSTF{
		Flow:       flow,
		Links:      make([]LinkFrac, len(s.Links)),
		Delivered:  s.Delivered,
		Dropped:    s.Dropped,
		InFlight:   s.InFlight,
		Iterations: s.Iterations,
		shared:     s.shared,
	}
	for i, lf := range s.Links {
		out.Links[i] = LinkFrac{Link: topo.MakeDirLinkID(toGlobal[lf.Link.Link()], lf.Link.Dir()), W: lf.W}
	}
	slices.SortFunc(out.Links, func(a, b LinkFrac) int { return int(a.Link) - int(b.Link) })
	return out
}
