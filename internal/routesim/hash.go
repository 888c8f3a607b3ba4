// Content fingerprints of the route-simulation outputs, for incremental
// re-verification (internal/serve). Symbolic traffic execution of one
// flow class reads exactly:
//
//   - the guarded BGP RIB candidates of the class's matched prefixes, on
//     every router (forward.go ruleGroups),
//   - the guarded statics whose prefix is one of the matched prefixes,
//   - the full guarded IGP state (route-iteration vectors toward any
//     next-hop router), and
//   - every SR policy (policies are matched against the *resolved* next
//     hop at execution time, so no per-class subset is safe to exclude).
//
// The hashes below cover those surfaces field by field, including the
// structural hash of every MTBDD guard, in deterministic order. Two runs
// in which a class's per-prefix hash and the global IGP/SR hashes agree
// execute that class to byte-identical STFs. None is computed once per
// class: the IS-IS hash once per topology, when SealIGP seals the result
// (ImportBase.IGPHash); HashSR once a run; HashPrefix once per (router,
// matched prefix) — a prefix's rows on every router fold into one prefix
// fingerprint that every class matching the prefix shares.
package routesim

import (
	"math"
	"net/netip"
	"sort"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// fp accumulates an FNV-1a–style 64-bit fingerprint over typed fields.
type fp uint64

const (
	fpOffset fp = 14695981039346656037
	fpPrime  fp = 1099511628211
)

func (h *fp) u64(x uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fp(x&0xff)) * fpPrime
		x >>= 8
	}
}

func (h *fp) b(x bool) {
	if x {
		h.u64(1)
	} else {
		h.u64(2)
	}
}

func (h *fp) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fp(s[i])) * fpPrime
	}
}

func (h *fp) addr(a netip.Addr) {
	b, _ := a.MarshalBinary()
	h.u64(uint64(len(b)))
	for _, x := range b {
		*h = (*h ^ fp(x)) * fpPrime
	}
}

func (h *fp) prefix(p netip.Prefix) {
	h.addr(p.Addr())
	h.u64(uint64(int64(p.Bits())))
}

// hash fingerprints the complete guarded IGP state: every router's
// cost-sorted candidates toward every destination, and the reachability
// guards — the value serve's class keys carry as HashIGP. h memoizes guard
// hashes across calls.
func (g *IGP) hash(h *mtbdd.Hasher) uint64 {
	acc := fpOffset
	for ri := range g.routes {
		acc.u64(uint64(int64(ri)))
		for _, d := range sortedDests(g.routes[ri]) {
			acc.u64(uint64(int64(d)))
			for _, rt := range g.routes[ri][d] {
				acc.u64(uint64(int64(rt.Out)))
				acc.u64(uint64(rt.Cost))
				acc.u64(h.Hash(rt.Guard))
			}
		}
		for _, d := range sortedDests(g.reach[ri]) {
			acc.u64(uint64(int64(d)))
			acc.u64(h.Hash(g.reach[ri][d]))
		}
	}
	return uint64(acc)
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

// TopoKey identifies what an IS-IS result is a function of: every field
// of every router and link of a topology, the failure mode and the budget
// (FailVars.Key).
type TopoKey uint64

// Key fingerprints the failure variables' network — every router's name,
// AS, loopback and NoFail, every link's ends, costs, capacity, addresses
// and NoFail — with the failure mode and budget. Two FailVars with equal
// keys allocate the same variables in the same order, and route
// simulation computes the same IS-IS result on them, whichever parse the
// networks came from.
func (fv *FailVars) Key() TopoKey {
	acc := fpOffset
	net := fv.Net
	acc.u64(uint64(len(net.Routers)))
	for i := range net.Routers {
		r := &net.Routers[i]
		acc.str(r.Name)
		acc.u64(uint64(r.AS))
		acc.addr(r.Loopback)
		acc.b(r.NoFail)
	}
	acc.u64(uint64(len(net.Links)))
	for i := range net.Links {
		l := &net.Links[i]
		acc.u64(uint64(int64(l.A)))
		acc.u64(uint64(int64(l.B)))
		acc.u64(uint64(l.CostAB))
		acc.u64(uint64(l.CostBA))
		acc.u64(math.Float64bits(l.Capacity))
		acc.addr(l.AddrA)
		acc.addr(l.AddrB)
		acc.b(l.NoFail)
	}
	acc.u64(uint64(int64(fv.Mode)))
	acc.u64(uint64(int64(fv.K)))
	return TopoKey(acc)
}

// HashSR fingerprints every router's guarded SR policies (policy order,
// endpoints, DSCP matches, and each weighted path with its guard).
func (r *Result) HashSR(h *mtbdd.Hasher) uint64 {
	acc := fpOffset
	for ri, pols := range r.SR {
		acc.u64(uint64(int64(ri)))
		for _, p := range pols {
			acc.prefix(p.Endpoint)
			acc.u64(uint64(int64(p.MatchDSCP)))
			for _, path := range p.Paths {
				acc.u64(uint64(len(path.Segments)))
				for _, seg := range path.Segments {
					acc.u64(uint64(int64(seg)))
				}
				acc.u64(uint64(path.Weight))
				acc.u64(h.Hash(path.Guard))
			}
		}
	}
	return uint64(acc)
}

// HashPrefix fingerprints everything router r's forwarding of pfx reads:
// the guarded statics with exactly that prefix (ruleGroups matches
// statics by prefix equality) and the BGP RIB candidates for it, in
// preference order with every decision-process attribute.
func (rs *Result) HashPrefix(r topo.RouterID, pfx netip.Prefix, h *mtbdd.Hasher) uint64 {
	acc := fpOffset
	for _, st := range rs.Statics[r] {
		if st.Prefix != pfx {
			continue
		}
		acc.b(st.Discard)
		acc.u64(uint64(int64(st.Out)))
		acc.b(st.Indirect)
		acc.u64(uint64(int64(st.ViaRouter)))
		acc.u64(h.Hash(st.Guard))
	}
	for _, c := range rs.BGP.RIBs[r][pfx] {
		acc.addr(c.NextHop)
		acc.b(c.Direct)
		acc.u64(uint64(int64(c.OutEdge)))
		acc.u64(uint64(int64(c.NextHopRouter)))
		acc.b(c.Deliver)
		acc.b(c.Discard)
		acc.b(c.AdvertiseOnly)
		acc.u64(uint64(len(c.ASPath)))
		for _, as := range c.ASPath {
			acc.u64(uint64(as))
		}
		acc.u64(uint64(c.LocalPref))
		acc.b(c.FromEBGP)
		acc.u64(uint64(c.IGPCost))
		acc.u64(h.Hash(c.Guard))
	}
	return uint64(acc)
}
