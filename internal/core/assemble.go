// STFs that change managers, and the check engine of compositional
// verification (DESIGN.md §17).
//
// A finished STF leaves the manager that built it in one form only: a
// SealedSTFs list — one mtbdd.Snapshot of every node of the list and, per
// STF, the positions of its roots. A compose domain seals the classes it
// contained, and the daemon's store the classes each build executed.
// Unsealing replays the snapshot into the destination manager, where
// hash-consing restores canonical node identity: an unsealed STF and a
// natively executed STF of the same function are the same *Node, so
// aggregation, scans and reports cannot tell where a class ran.
package core

import (
	"slices"

	"github.com/yu-verify/yu/internal/mtbdd"
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

// SealSTFs seals stfs, in order. It only reads their nodes.
func SealSTFs(stfs []*FlowSTF) *SealedSTFs {
	l := &SealedSTFs{STFs: make([]SealedSTF, len(stfs))}
	var roots []*mtbdd.Node
	for i, s := range stfs {
		links := make([]topo.DirLinkID, 0, len(s.Links))
		for dl := range s.Links {
			links = append(links, dl)
		}
		slices.Sort(links)
		roots = append(roots, s.Delivered, s.Dropped, s.InFlight)
		for _, dl := range links {
			roots = append(roots, s.Links[dl])
		}
		l.STFs[i] = SealedSTF{Links: links, Iterations: s.Iterations, shared: s.shared}
	}
	var at []uint32
	l.Snap, at = mtbdd.NewSnapshot(roots)
	for i := range l.STFs {
		n := 3 + len(l.STFs[i].Links)
		l.STFs[i].Roots, at = at[:n:n], at[n:]
	}
	return l
}

// Unseal replays the list into m — one ImportSnapshot, under m's budget and
// interrupt like any node-building operation — and returns its STFs there,
// STF i as flows[i]'s.
func (l *SealedSTFs) Unseal(m *mtbdd.Manager, flows []topo.Flow) []*FlowSTF {
	r := l.Replay(m)
	out := make([]*FlowSTF, len(l.STFs))
	for i := range out {
		out[i] = r.STF(i, flows[i])
	}
	return out
}

// Replayed is a sealed list replayed into one manager: the node there of
// every snapshot position. Its nodes are nobody's roots, so it is valid only
// until that manager next collects.
type Replayed struct {
	l     *SealedSTFs
	table []*mtbdd.Node
}

// Replay replays the list into m, once, for any number of its STFs to be
// read off (STF).
func (l *SealedSTFs) Replay(m *mtbdd.Manager) *Replayed {
	return &Replayed{l: l, table: m.ImportSnapshot(l.Snap)}
}

// STF returns the list's STF i, replayed, as flow's.
func (r *Replayed) STF(i int, flow topo.Flow) *FlowSTF {
	s := &r.l.STFs[i]
	stf := &FlowSTF{
		Flow:       flow,
		Links:      make(map[topo.DirLinkID]*mtbdd.Node, len(s.Links)),
		Delivered:  r.table[s.Roots[0]],
		Dropped:    r.table[s.Roots[1]],
		InFlight:   r.table[s.Roots[2]],
		Iterations: s.Iterations,
		shared:     s.shared,
	}
	for j, dl := range s.Links {
		stf.Links[dl] = r.table[s.Roots[3+j]]
	}
	return stf
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

// TranslateSTF re-keys a domain-local FlowSTF's link map to global
// directed-link IDs via toGlobal (indexed by subnet LinkID), leaving the
// nodes untouched in their owning manager, and stamps the global view of
// the executed flow (the domain ran it under a subnet-local ingress ID).
// The result is what a domain seals for NewAssembledVerifier.
func TranslateSTF(s *FlowSTF, toGlobal []topo.LinkID, flow topo.Flow) *FlowSTF {
	out := &FlowSTF{
		Flow:       flow,
		Links:      make(map[topo.DirLinkID]*mtbdd.Node, len(s.Links)),
		Delivered:  s.Delivered,
		Dropped:    s.Dropped,
		InFlight:   s.InFlight,
		Iterations: s.Iterations,
		shared:     s.shared,
	}
	for l, w := range s.Links {
		gl := toGlobal[l.Link()]
		out.Links[topo.MakeDirLinkID(gl, l.Dir())] = w
	}
	return out
}
