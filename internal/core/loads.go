// Loads carried across runs by their inputs (DESIGN.md §14). A link's load
// is the n-ary sum of the STFs crossing it (§4.5, §5.2), so it is a function
// of the ordered classes it sums: a load whose classes did not move since an
// earlier check built it is replayed, not summed again.
package core

import (
	"math"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
)

// SealedLoads is a list of built loads in manager-independent form: one
// snapshot of every node of the list and, per load, the position of its root
// and what it summed. It holds no node pointer and is read-only once sealed.
type SealedLoads struct {
	Snap   *mtbdd.Snapshot
	Roots  []uint32
	Counts []LoadCounts
}

// LoadCounts is what a load summed: the classes it covers and the link-local
// classes among them (LinkCheckStat.Flows and Classes).
type LoadCounts struct{ Flows, Classes int }

// Len is the number of snapshot entries the list holds.
func (l *SealedLoads) Len() int { return l.Snap.Len() }

func (l *SealedLoads) snapshot() *mtbdd.Snapshot { return l.Snap }

// Sizes is, per load, the snapshot entries its root reaches: the length of
// the list sealing it alone.
func (l *SealedLoads) Sizes() []int {
	groups := make([][]uint32, len(l.Roots))
	for i := range l.Roots {
		groups[i] = l.Roots[i : i+1]
	}
	return l.Snap.Sizes(groups)
}

// Sub is the list of loads idx, in that order, holding only the snapshot
// entries they reach.
func (l *SealedLoads) Sub(idx []int) *SealedLoads {
	roots := make([]uint32, len(idx))
	counts := make([]LoadCounts, len(idx))
	for j, i := range idx {
		roots[j], counts[j] = l.Roots[i], l.Counts[i]
	}
	snap, at := l.Snap.Sub(roots)
	return &SealedLoads{Snap: snap, Roots: at, Counts: counts}
}

// loadKey fingerprints a subject's load on top of base (checkBase): the
// subject, then the classes it sums in STF order — a link's each by its key,
// which carries its summed volume (Verifier.classKeys), a delivered prefix's
// each with its volume inside the prefix too. ok is false for an aggregate,
// whose member links are keyed one by one, and for a link out of range.
func (v *Verifier) loadKey(base routesim.Fingerprint, s Subject) (k routesim.Fingerprint, ok bool) {
	switch {
	case len(s.Links) > 0:
		return k, false
	case s.Prefix.IsValid():
		k = base
		k.Prefix(s.Prefix)
		vols, inside := v.deliveredVolumes(s.Prefix)
		n := 0
		for ci, in := range inside {
			if in {
				k.Add(v.classKeys[ci])
				k.U64(math.Float64bits(vols[ci]))
				n++
			}
		}
		k.U64(uint64(n))
		return k, true
	case s.Link < 0 || int(s.Link) >= len(v.linkIdx):
		return k, false
	}
	if v.linkKeys == nil {
		// A run's link keys are all computed at once, on first use.
		v.linkKeys = make([]routesim.Fingerprint, len(v.linkIdx))
		for l, refs := range v.linkIdx {
			k := base
			k.U64(uint64(l))
			k.U64(uint64(len(refs)))
			for _, ref := range refs {
				k.Add(v.classKeys[ref.stf])
			}
			v.linkKeys[l] = k
		}
	}
	return v.linkKeys[s.Link], true
}

// loadSession is one Check's load session: every load it has, by key, built
// or carried, and the loads it built, to seal when it ends. A load it builds
// is pinned (Engine.pinned) like a replayed list, so a collection inside the
// Check leaves it to seal.
type loadSession struct {
	session[*SealedLoads]
	base   routesim.Fingerprint
	seen   map[routesim.Fingerprint]seenLoad
	built  []*mtbdd.Node
	counts []LoadCounts
}

type seenLoad struct {
	w *mtbdd.Node
	n LoadCounts
}

// startLoads opens the Check's load session, when the run has a carrier.
func (v *Verifier) startLoads() {
	if v.carrier == nil {
		return
	}
	v.loads = &loadSession{
		session: newSession[*SealedLoads](v.e),
		base:    v.checkBase(),
		seen:    make(map[routesim.Fingerprint]seenLoad),
	}
}

// endLoads closes the Check's load session: the loads it built go to the
// carrier as one sealed list — never a pruned check's partial sum, which
// takes no session — and its nodes are no longer pinned.
func (v *Verifier) endLoads() {
	ls := v.loads
	if ls == nil {
		return
	}
	var l *SealedLoads
	if len(ls.built) > 0 {
		snap, at := mtbdd.NewSnapshot(v.e.m, ls.built)
		l = &SealedLoads{Snap: snap, Roots: at, Counts: ls.counts}
	}
	v.carrier.CarryLoads(ls.carried, ls.keys, l)
	ls.end()
	v.loads = nil
}

// summed is subject s's load, from classes: carried when the Check has a load
// session and an earlier Check stored one under the key of s's inputs
// (loadKey) — replayed into this manager, where hash-consing makes it the
// node sum would build — and summed and handed on otherwise. classes adds
// what it groups to stat, and a carried load adds what it had grouped.
func (v *Verifier) summed(s Subject, stat *LinkCheckStat, classes func() []scanClass) *mtbdd.Node {
	ls := v.loads
	if ls == nil {
		return v.sum(classes())
	}
	k, keyed := v.loadKey(ls.base, s)
	if !keyed {
		return v.sum(classes())
	}
	got, ok := ls.seen[k]
	if !ok {
		if l, i, stored := v.carrier.CarriedLoad(k); stored {
			got, ok = seenLoad{ls.table(l)[l.Roots[i]], l.Counts[i]}, true
			ls.seen[k] = got
			ls.carried = append(ls.carried, k)
		}
	}
	if ok {
		stat.Flows += got.n.Flows
		stat.Classes += got.n.Classes
		return got.w
	}
	before := *stat
	w := v.sum(classes())
	n := LoadCounts{Flows: stat.Flows - before.Flows, Classes: stat.Classes - before.Classes}
	ls.seen[k] = seenLoad{w, n}
	ls.keys = append(ls.keys, k)
	ls.built = append(ls.built, w)
	ls.counts = append(ls.counts, n)
	v.e.pinned = append(v.e.pinned, w)
	return w
}
