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
// execute that class to byte-identical STFs. Each is a per-run quantity:
// the consumer computes HashIGP and HashSR once a run and HashPrefix once
// per (router, matched prefix) — a prefix's rows on every router fold into
// one prefix fingerprint that every class matching the prefix shares —
// never once per class.
package routesim

import (
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

// HashIGP fingerprints the complete guarded IGP state: every router's
// cost-sorted candidates toward every destination, and the reachability
// guards. h memoizes guard hashes across calls.
func (r *Result) HashIGP(h *mtbdd.Hasher) uint64 {
	acc := fpOffset
	g := r.IGP
	for ri := range g.routes {
		acc.u64(uint64(int64(ri)))
		dests := make([]topo.RouterID, 0, len(g.routes[ri]))
		for d := range g.routes[ri] {
			dests = append(dests, d)
		}
		sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
		for _, d := range dests {
			acc.u64(uint64(int64(d)))
			for _, rt := range g.routes[ri][d] {
				acc.u64(uint64(int64(rt.Out)))
				acc.u64(uint64(rt.Cost))
				acc.u64(h.Hash(rt.Guard))
			}
		}
		reaches := make([]topo.RouterID, 0, len(g.reach[ri]))
		for d := range g.reach[ri] {
			reaches = append(reaches, d)
		}
		sort.Slice(reaches, func(i, j int) bool { return reaches[i] < reaches[j] })
		for _, d := range reaches {
			acc.u64(uint64(int64(d)))
			acc.u64(h.Hash(g.reach[ri][d]))
		}
	}
	return uint64(acc)
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
