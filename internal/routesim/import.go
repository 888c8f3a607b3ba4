package routesim

import (
	"fmt"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// importWith clones the result structure translating every guard through
// imp — the traversal behind ImportBase.ImportInto.
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

// ImportBase is a shared read-only snapshot of every guard MTBDD in a
// route-simulation result — the copy-on-write base of the parallel
// pipeline. Build it once with NewImportBase, then let each shard manager
// clone the result from it with ImportBase.ImportInto: the source DAG is
// walked and deduplicated once, and each shard only pays a linear replay
// into its own arena (see mtbdd.Snapshot). The base holds no mutable
// state, so any number of shards can import from it concurrently.
type ImportBase struct {
	src  *Result
	snap *mtbdd.Snapshot
	// at is each source guard's position in snap. It lives as long as the
	// base, which holds the source result anyway.
	at map[*mtbdd.Node]uint32
}

// NewImportBase flattens all guards of the result into a shared snapshot.
func (r *Result) NewImportBase() *ImportBase {
	var roots []*mtbdd.Node
	r.eachGuard(func(n *mtbdd.Node) { roots = append(roots, n) })
	snap, pos := mtbdd.NewSnapshot(roots)
	b := &ImportBase{src: r, snap: snap, at: make(map[*mtbdd.Node]uint32, len(roots))}
	for i, n := range roots {
		b.at[n] = pos[i]
	}
	return b
}

// NumNodes returns the number of distinct MTBDD nodes in the shared base.
func (b *ImportBase) NumNodes() int { return b.snap.Len() }

// ImportInto clones the underlying result into the manager behind dst — how
// the shard pool hands each worker a private copy of the guarded RIBs without
// re-running route simulation. dst must be a FailVars over the same network,
// mode, and budget, created with NewFailVars on a fresh manager: that
// construction is deterministic, so dst's variable order matches the source
// and the cloned guards are structurally identical. Guards resolve through
// the shared snapshot, one linear replay per shard; the clone shares no MTBDD
// state with the source. Safe to call concurrently from multiple shards (each
// dst owns its manager; the base is read-only).
func (b *ImportBase) ImportInto(dst *FailVars) *Result {
	if src := b.src.Vars; dst.Net != src.Net || dst.Mode != src.Mode || dst.K != src.K {
		panic("routesim: ImportInto requires a FailVars over the same network, mode, and budget")
	} else if dst.M.NumVars() != src.M.NumVars() {
		panic(fmt.Sprintf("routesim: ImportInto variable count mismatch: %d vs %d", dst.M.NumVars(), src.M.NumVars()))
	}
	table := dst.M.ImportSnapshot(b.snap)
	return b.src.importWith(dst, func(n *mtbdd.Node) *mtbdd.Node {
		i, ok := b.at[n]
		if !ok {
			// The base holds every guard of the result it was built from.
			panic("routesim: ImportInto met a guard missing from its base")
		}
		return table[i]
	})
}

// eachGuard invokes fn on every guard node of the result, in unspecified
// order (hash-consing makes replayed graphs canonical regardless of the
// order they are encoded in).
func (r *Result) eachGuard(fn func(*mtbdd.Node)) {
	for ri := range r.IGP.routes {
		for _, routes := range r.IGP.routes[ri] {
			for i := range routes {
				fn(routes[i].Guard)
			}
		}
		for _, guard := range r.IGP.reach[ri] {
			fn(guard)
		}
	}
	for _, rib := range r.BGP.RIBs {
		for _, cands := range rib {
			for _, c := range cands {
				fn(c.Guard)
			}
		}
	}
	for _, pols := range r.SR {
		for i := range pols {
			for j := range pols[i].Paths {
				fn(pols[i].Paths[j].Guard)
			}
		}
	}
	for _, sts := range r.Statics {
		for i := range sts {
			fn(sts[i].Guard)
		}
	}
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
