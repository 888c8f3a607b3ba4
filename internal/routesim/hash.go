// Content fingerprints of route-simulation inputs and outputs, for the
// daemon (internal/serve): one 128-bit Fingerprint type behind every key
// it derives. The inputs are keyed to decide what a build may carry from
// the build before it (TopoKey for IS-IS, BGPKey and the per-prefix keys
// of carry.go for BGP); the outputs to decide which warm STFs a build may
// reuse. Symbolic traffic execution of one flow class reads exactly:
//
//   - the guarded BGP RIB candidates of the class's matched prefixes, on
//     every router (forward.go ruleGroups),
//   - the guarded statics whose prefix is one of the matched prefixes,
//   - the full guarded IGP state (route-iteration vectors toward any
//     next-hop router), and
//   - every SR policy (policies are matched against the *resolved* next
//     hop at execution time, so no per-class subset is safe to exclude).
//
// IS-IS is a function of the topology alone (ComputeIGP reads nothing but
// its FailVars), so TopoKey identifies it and nothing hashes its guards.
// HashSR and HashPrefix cover the rest field by field, including the
// structural hash of every MTBDD guard, in deterministic order. Two runs
// in which the topology key, the SR fingerprint and a class's per-prefix
// fingerprints agree execute that class to byte-identical STFs. None is
// computed once per class: HashSR once a run, HashPrefix once per matched
// prefix, shared by every class matching it.
package routesim

import (
	"math"
	"net/netip"

	"github.com/yu-verify/yu/internal/mtbdd"
)

// Fingerprint is a 128-bit content fingerprint of a stream of typed
// fields: two independent 64-bit hashes of the same words, an FNV-1a pass
// over their bytes and a splitmix64 chain, which make an accidental
// collision negligible (~2^-64 at any realistic population). It is its
// own running state: a fingerprint this package returns (a key, HashSR,
// HashPrefix) can be fed further fields in a fixed order and compared.
// Variable-sized fields are length-prefixed, so distinct field sequences
// cannot collide by concatenation.
type Fingerprint [2]uint64

// newFingerprint returns the fingerprint of the empty stream.
func newFingerprint() Fingerprint {
	return Fingerprint{14695981039346656037, 0x2545f4914f6cdd1d}
}

// U64 feeds one word.
func (f *Fingerprint) U64(x uint64) {
	const fnvPrime = 1099511628211
	a := f[0]
	for i := 0; i < 64; i += 8 {
		a = (a ^ (x >> i & 0xff)) * fnvPrime
	}
	f[0], f[1] = a, mix64(f[1]^mix64(x+0x9e3779b97f4a7c15))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Bool feeds one flag.
func (f *Fingerprint) Bool(x bool) {
	if x {
		f.U64(1)
	} else {
		f.U64(2)
	}
}

// Str feeds a string: its length, then its bytes eight to a word.
func (f *Fingerprint) Str(s string) {
	f.U64(uint64(len(s)))
	var acc, n uint64
	for i := 0; i < len(s); i++ {
		acc = acc<<8 | uint64(s[i])
		if n++; n == 8 {
			f.U64(acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		f.U64(acc)
	}
}

// Addr feeds an address: its 16-byte form and whether it is IPv4.
func (f *Fingerprint) Addr(a netip.Addr) {
	b := a.As16()
	for i := 0; i < 16; i += 8 {
		var x uint64
		for j := 0; j < 8; j++ {
			x = x<<8 | uint64(b[i+j])
		}
		f.U64(x)
	}
	f.Bool(a.Is4())
}

// Prefix feeds a prefix: its address and length.
func (f *Fingerprint) Prefix(p netip.Prefix) {
	f.Addr(p.Addr())
	f.U64(uint64(int64(p.Bits())))
}

// Add feeds another fingerprint.
func (f *Fingerprint) Add(g Fingerprint) {
	f.U64(g[0])
	f.U64(g[1])
}

// TopoKey identifies what an IS-IS result is a function of: every field
// of every router and link of a topology, the failure mode and the budget
// (FailVars.Key).
type TopoKey Fingerprint

// Key fingerprints the failure variables' network — every router's name,
// AS, loopback and NoFail, every link's ends, costs, capacity, addresses
// and NoFail — with the failure mode and budget. Two FailVars with equal
// keys allocate the same variables in the same order, and route
// simulation computes the same IS-IS result on them, whichever parse the
// networks came from.
func (fv *FailVars) Key() TopoKey {
	acc := newFingerprint()
	net := fv.Net
	acc.U64(uint64(len(net.Routers)))
	for i := range net.Routers {
		r := &net.Routers[i]
		acc.Str(r.Name)
		acc.U64(uint64(r.AS))
		acc.Addr(r.Loopback)
		acc.Bool(r.NoFail)
	}
	acc.U64(uint64(len(net.Links)))
	for i := range net.Links {
		l := &net.Links[i]
		acc.U64(uint64(int64(l.A)))
		acc.U64(uint64(int64(l.B)))
		acc.U64(uint64(l.CostAB))
		acc.U64(uint64(l.CostBA))
		acc.U64(math.Float64bits(l.Capacity))
		acc.Addr(l.AddrA)
		acc.Addr(l.AddrB)
		acc.Bool(l.NoFail)
	}
	acc.U64(uint64(int64(fv.Mode)))
	acc.U64(uint64(int64(fv.K)))
	return TopoKey(acc)
}

// HashSR fingerprints every router's guarded SR policies (policy order,
// endpoints, DSCP matches, and each weighted path with its guard).
func (r *Result) HashSR(h *mtbdd.Hasher) Fingerprint {
	acc := newFingerprint()
	for ri, pols := range r.SR {
		acc.U64(uint64(int64(ri)))
		acc.U64(uint64(len(pols)))
		for _, p := range pols {
			acc.Prefix(p.Endpoint)
			acc.U64(uint64(int64(p.MatchDSCP)))
			acc.U64(uint64(len(p.Paths)))
			for _, path := range p.Paths {
				acc.U64(uint64(len(path.Segments)))
				for _, seg := range path.Segments {
					acc.U64(uint64(int64(seg)))
				}
				acc.U64(uint64(path.Weight))
				acc.U64(h.Hash(path.Guard))
			}
		}
	}
	return acc
}

// HashPrefix fingerprints everything forwarding pfx reads on every router,
// in router order: the guarded statics with exactly that prefix
// (ruleGroups matches statics by prefix equality) and the BGP RIB
// candidates for it, in preference order with every decision-process
// attribute.
func (rs *Result) HashPrefix(pfx netip.Prefix, h *mtbdd.Hasher) Fingerprint {
	acc := newFingerprint()
	for r, rib := range rs.BGP.RIBs {
		for _, st := range rs.Statics[r] {
			if st.Prefix != pfx {
				continue
			}
			acc.Bool(true)
			acc.Bool(st.Discard)
			acc.U64(uint64(int64(st.Out)))
			acc.Bool(st.Indirect)
			acc.U64(uint64(int64(st.ViaRouter)))
			acc.U64(h.Hash(st.Guard))
		}
		acc.Bool(false)
		cands := rib[pfx]
		acc.U64(uint64(len(cands)))
		for _, c := range cands {
			acc.Addr(c.NextHop)
			acc.Bool(c.Direct)
			acc.U64(uint64(int64(c.OutEdge)))
			acc.U64(uint64(int64(c.NextHopRouter)))
			acc.Bool(c.Deliver)
			acc.Bool(c.Discard)
			acc.Bool(c.AdvertiseOnly)
			acc.U64(uint64(len(c.ASPath)))
			for _, as := range c.ASPath {
				acc.U64(uint64(as))
			}
			acc.U64(uint64(c.LocalPref))
			acc.Bool(c.FromEBGP)
			acc.U64(uint64(c.IGPCost))
			acc.U64(h.Hash(c.Guard))
		}
	}
	return acc
}
