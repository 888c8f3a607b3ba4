package routesim

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// importWith clones the result structure translating every guard through
// imp — the traversal behind sealing and replaying an ImportBase. dst is
// the clone's FailVars (nil for a sealed template). A result without BGP
// (an IS-IS result alone, SealIGP) clones to one without BGP.
func (r *Result) importWith(dst *FailVars, imp func(*mtbdd.Node) *mtbdd.Node) *Result {
	out := &Result{
		Vars:    dst,
		IGP:     r.IGP.importInto(dst, imp),
		BGP:     r.BGP.importInto(imp),
		SR:      make([][]GuardedSRPolicy, len(r.SR)),
		Statics: make([][]GuardedStatic, len(r.Statics)),
		Stats:   r.Stats,
	}
	for i, pols := range r.SR {
		if pols == nil {
			continue
		}
		cp := make([]GuardedSRPolicy, len(pols))
		for j, p := range pols {
			cp[j] = GuardedSRPolicy{Endpoint: p.Endpoint, MatchDSCP: p.MatchDSCP}
			cp[j].Paths = make([]GuardedSRPath, len(p.Paths))
			for k, path := range p.Paths {
				cp[j].Paths[k] = GuardedSRPath{
					Segments: path.Segments,
					Weight:   path.Weight,
					Guard:    imp(path.Guard),
				}
			}
		}
		out.SR[i] = cp
	}
	for i, sts := range r.Statics {
		if sts == nil {
			continue
		}
		cp := make([]GuardedStatic, len(sts))
		for j, st := range sts {
			cp[j] = st
			cp[j].Guard = imp(st.Guard)
		}
		out.Statics[i] = cp
	}
	return out
}

// ImportBase is a route-simulation result — whole (NewImportBase), or its
// IS-IS part alone (SealIGP) — sealed to outlive the manager that computed
// it: every guard is a position in one mtbdd.Snapshot, and the base holds
// no node, so it keeps no manager alive. ImportInto replays it into a fresh
// manager over the same topology key, one linear replay per clone (see
// mtbdd.Snapshot). The base is immutable, so any number of goroutines can
// import from it at once. The daemon carries IS-IS results from one
// version's build to the next this way (Carrier), and benchmark/
// measures the copy of a whole result with it.
type ImportBase struct {
	key   TopoKey
	nvars int
	snap  *mtbdd.Snapshot
	// tmpl is the result's structure with every guard nil and no FailVars;
	// at holds each guard's position in snap, in tmpl's guardRefs order.
	tmpl *Result
	at   []uint32
}

// NewImportBase seals all guards of the result into an ImportBase.
func (r *Result) NewImportBase() *ImportBase {
	tmpl := r.importWith(nil, keep)
	var roots []*mtbdd.Node
	tmpl.guardRefs(func(g **mtbdd.Node) {
		roots = append(roots, *g)
		*g = nil
	})
	snap, at := mtbdd.NewSnapshot(r.Vars.M, roots)
	return &ImportBase{key: r.Vars.Key(), nvars: r.Vars.M.NumVars(), snap: snap, tmpl: tmpl, at: at}
}

// SealIGP seals an IS-IS result for the route simulations to come on the
// same topology key (Carrier): replayed, it is the IGP ComputeIGP would
// build in the destination manager.
func SealIGP(g *IGP) *ImportBase {
	return (&Result{Vars: g.fv, IGP: g}).NewImportBase()
}

func keep(n *mtbdd.Node) *mtbdd.Node { return n }

// importSnapshot replays snap, sealed from a manager with nvars variables,
// into dst's manager and returns the translation table. It is the one
// replay of every base this package seals: a whole result or IS-IS alone
// (ImportInto), and carried BGP prefixes (BGPBase).
func importSnapshot(dst *FailVars, nvars int, snap *mtbdd.Snapshot) []*mtbdd.Node {
	if dst.M.NumVars() != nvars {
		panic(fmt.Sprintf("routesim: ImportInto variable count mismatch: %d vs %d", dst.M.NumVars(), nvars))
	}
	return dst.M.ImportSnapshot(snap)
}

// NumNodes returns the number of distinct MTBDD nodes in the shared base.
func (b *ImportBase) NumNodes() int { return b.snap.Len() }

// Key is the topology key of the FailVars the base was sealed from.
func (b *ImportBase) Key() TopoKey { return b.key }

// ImportInto replays the sealed result into the manager behind dst — a
// private copy of the guarded RIBs without re-running route simulation.
// dst must be a FailVars with the base's topology key (FailVars.Key: the
// same routers and links, mode and budget — the network may be another
// parse of it) created with NewFailVars on a fresh manager: that
// construction is deterministic, so dst's variable order matches the
// source and the replayed guards are structurally identical. The clone
// shares no MTBDD state with the source. Safe to call concurrently (each
// dst owns its manager; the base is read-only).
func (b *ImportBase) ImportInto(dst *FailVars) *Result {
	if dst.Key() != b.key {
		panic("routesim: ImportInto requires a FailVars over the same topology, mode, and budget")
	}
	table := importSnapshot(dst, b.nvars, b.snap)
	out := b.tmpl.importWith(dst, keep)
	i := 0
	out.guardRefs(func(g **mtbdd.Node) {
		*g = table[b.at[i]]
		i++
	})
	return out
}

// guardRefs calls fn with the address of every guard of the result, in an
// order fixed by the result's contents (map keys sorted), so that a result
// and every clone of it visit their guards in the same order.
func (r *Result) guardRefs(fn func(**mtbdd.Node)) {
	g := r.IGP
	for ri := range g.routes {
		for _, d := range sortedDests(g.routes[ri]) {
			routes := g.routes[ri][d]
			for i := range routes {
				fn(&routes[i].Guard)
			}
		}
		reach := g.reach[ri]
		for _, d := range sortedDests(reach) {
			n := reach[d]
			fn(&n)
			reach[d] = n
		}
	}
	if r.BGP != nil {
		for _, rib := range r.BGP.RIBs {
			pfxs := make([]netip.Prefix, 0, len(rib))
			for pfx := range rib {
				pfxs = append(pfxs, pfx)
			}
			sort.Slice(pfxs, func(i, j int) bool {
				if c := pfxs[i].Addr().Compare(pfxs[j].Addr()); c != 0 {
					return c < 0
				}
				return pfxs[i].Bits() < pfxs[j].Bits()
			})
			for _, pfx := range pfxs {
				for _, c := range rib[pfx] {
					fn(&c.Guard)
				}
			}
		}
	}
	for _, pols := range r.SR {
		for i := range pols {
			for j := range pols[i].Paths {
				fn(&pols[i].Paths[j].Guard)
			}
		}
	}
	for _, sts := range r.Statics {
		for i := range sts {
			fn(&sts[i].Guard)
		}
	}
}

// sortedDests returns a per-router IGP map's destinations in increasing
// order.
func sortedDests[V any](m map[topo.RouterID]V) []topo.RouterID {
	dests := make([]topo.RouterID, 0, len(m))
	for d := range m {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	return dests
}

func (g *IGP) importInto(dst *FailVars, imp func(*mtbdd.Node) *mtbdd.Node) *IGP {
	out := &IGP{
		fv:     dst,
		routes: make([]map[topo.RouterID][]IGPRoute, len(g.routes)),
		reach:  make([]map[topo.RouterID]*mtbdd.Node, len(g.reach)),
	}
	for r := range g.routes {
		out.routes[r] = make(map[topo.RouterID][]IGPRoute, len(g.routes[r]))
		for dest, routes := range g.routes[r] {
			cp := make([]IGPRoute, len(routes))
			for i, rt := range routes {
				cp[i] = IGPRoute{Out: rt.Out, Cost: rt.Cost, Guard: imp(rt.Guard)}
			}
			out.routes[r][dest] = cp
		}
		out.reach[r] = make(map[topo.RouterID]*mtbdd.Node, len(g.reach[r]))
		for dest, guard := range g.reach[r] {
			out.reach[r][dest] = imp(guard)
		}
	}
	return out
}

func (b *BGP) importInto(imp func(*mtbdd.Node) *mtbdd.Node) *BGP {
	if b == nil {
		return nil
	}
	out := &BGP{Converged: b.Converged, Rounds: b.Rounds, RIBs: make([]BGPRIB, len(b.RIBs))}
	for r, rib := range b.RIBs {
		if rib == nil {
			continue
		}
		cp := make(BGPRIB, len(rib))
		for pfx, cands := range rib {
			cc := make([]*BGPCand, len(cands))
			for i, c := range cands {
				dup := *c
				dup.Guard = imp(c.Guard)
				cc[i] = &dup
			}
			cp[pfx] = cc
		}
		out.RIBs[r] = cp
	}
	return out
}
