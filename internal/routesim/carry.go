// Route state carried from one route simulation to the next: the daemon
// (internal/serve) hands each version's build the IS-IS and BGP results of
// the build before it. IS-IS is carried whole, keyed by the topology. BGP
// is carried one prefix at a time: a prefix whose inputs are unchanged is
// replayed, and the others are recomputed in one Stepper run restricted to
// them (DESIGN.md §14).
package routesim

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// Carrier hands route-simulation results from one run to the next
// (RunContext). A run whose FailVars key matches a carried IS-IS result
// replays it instead of computing IS-IS; a run that computes one offers it
// sealed. A run whose BGP key matches a carried BGP result replays every
// prefix whose own key is unchanged and recomputes the rest; a converged
// run that recomputed any prefix offers its whole result sealed. The
// daemon's warm cache is the one implementation.
type Carrier interface {
	// CarriedIGP returns the IS-IS result sealed under key, or nil.
	CarriedIGP(key TopoKey) *ImportBase
	// CarryIGP offers a freshly computed result, sealed by SealIGP.
	CarryIGP(*ImportBase)
	// CarriedBGP returns the BGP result sealed under key, or nil.
	CarriedBGP(key BGPKey) *BGPBase
	// CarryBGP reports a converged run: how many prefixes it replayed and
	// how many it recomputed, with its result sealed when it recomputed
	// any (nil otherwise: the carried result still holds every prefix).
	CarryBGP(b *BGPBase, carried, recomputed int)
}

// carriedIGP is ComputeIGP through a carrier (nil: none). A replayed
// result's stats record the replay's time and no level built.
func carriedIGP(fv *FailVars, c Carrier) *IGP {
	if c == nil {
		return ComputeIGP(fv)
	}
	if b := c.CarriedIGP(fv.Key()); b != nil {
		start := time.Now()
		g := b.ImportInto(fv).IGP
		g.stats = Stats{IGPTime: time.Since(start)}
		return g
	}
	g := ComputeIGP(fv)
	c.CarryIGP(SealIGP(g))
	return g
}

// carriedBGP is ComputeBGP through a carrier (nil: none). Prefixes whose
// keys match the carried result are replayed from it; the others run in
// one Stepper restricted to them. Every prefix reaches the same fixed
// point whether or not the others run beside it, so the RIBs are those
// ComputeBGP builds, guard for guard. A run that does not converge is
// returned as it is, and nothing is carried from it.
func carriedBGP(fv *FailVars, cfgs config.Configs, igp *IGP, c Carrier) *BGP {
	if c == nil {
		return ComputeBGP(fv, cfgs, igp)
	}
	keys := newBGPKeys(fv, cfgs)
	base := c.CarriedBGP(keys.global)
	var replayed []netip.Prefix
	if base != nil {
		for i, p := range keys.order {
			if sp, ok := base.prefixes[p]; ok && sp.key == keys.prefix[i] {
				replayed = append(replayed, p)
			}
		}
	}
	var only func(netip.Prefix) bool
	if len(replayed) > 0 {
		skip := make(map[netip.Prefix]bool, len(replayed))
		for _, p := range replayed {
			skip[p] = true
		}
		only = func(p netip.Prefix) bool { return !skip[p] }
	}
	st := NewStepper(fv, cfgs, igp, nil, only)
	b := st.run()
	if !b.Converged {
		return b
	}
	defer st.clock(time.Now())
	if len(replayed) > 0 {
		base.replay(st, replayed)
	}
	recomputed := len(keys.order) - len(replayed)
	var sealed *BGPBase
	if recomputed > 0 {
		sealed = sealBGP(st, keys)
	}
	c.CarryBGP(sealed, len(replayed), recomputed)
	return b
}

// BGPKey fingerprints the inputs every prefix's BGP propagation reads: the
// topology, failure mode and budget (FailVars.Key, which also identifies
// the IS-IS state), and the session graph — for every config of a router
// in the network, in sorted-name order, the router's name, each neighbor's
// address, remote AS and local-pref, and the redistribute-static flag.
type BGPKey Fingerprint

// bgpKeys fingerprints one run's BGP inputs: the global key, and for every
// prefix the run seeds the inputs that name it — the networks that
// originate it, the statics for it on routers that redistribute statics,
// and the sessions whose export-deny list holds it.
type bgpKeys struct {
	global BGPKey
	// order lists the run's prefixes in seed order; prefix holds their
	// keys, index for index.
	order  []netip.Prefix
	prefix []Fingerprint
}

// Seed tokens of a prefix key.
const (
	keyNetwork uint64 = iota + 1
	keyStatic
	keyDeny
)

func newBGPKeys(fv *FailVars, cfgs config.Configs) *bgpKeys {
	net := fv.Net
	g := Fingerprint(fv.Key())
	index := make(map[netip.Prefix]int)
	k := &bgpKeys{}
	// at returns pfx's accumulator, valid until the next call.
	at := func(pfx netip.Prefix) *Fingerprint {
		i, ok := index[pfx]
		if !ok {
			i = len(k.order)
			index[pfx] = i
			k.order = append(k.order, pfx)
			k.prefix = append(k.prefix, newFingerprint())
		}
		return &k.prefix[i]
	}
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	// The walk mirrors NewStepper's: configs of routers outside the network
	// are skipped, and a router's seeds are its networks, then its statics.
	for _, name := range names {
		rc := cfgs[name]
		r, _ := net.RouterByName(name)
		if r == nil {
			continue
		}
		g.Str(name)
		g.Bool(rc.RedistributeStatic)
		g.U64(uint64(len(rc.Neighbors)))
		for _, nb := range rc.Neighbors {
			g.Addr(nb.Addr)
			g.U64(uint64(nb.RemoteAS))
			g.U64(uint64(nb.LocalPref))
		}
		for _, pfx := range rc.Networks {
			h := at(pfx)
			h.U64(keyNetwork)
			h.U64(uint64(r.ID))
		}
		if rc.RedistributeStatic {
			for _, s := range rc.Statics {
				h := at(s.Prefix)
				h.U64(keyStatic)
				h.U64(uint64(r.ID))
				h.Bool(s.Discard)
				h.Addr(s.NextHop)
			}
		}
	}
	denies := exportDenies(net, names, cfgs)
	ends := make([]sessionEnds, 0, len(denies))
	for e := range denies {
		ends = append(ends, e)
	}
	slices.SortFunc(ends, func(a, b sessionEnds) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	for _, e := range ends {
		for _, pfx := range denies[e] {
			if i, ok := index[pfx]; ok {
				k.prefix[i].U64(keyDeny)
				k.prefix[i].U64(uint64(e.from))
				k.prefix[i].U64(uint64(e.to))
			}
		}
	}
	k.global = BGPKey(g)
	return k
}

// BGPBase is a converged BGP result sealed for the runs to come under the
// same BGPKey (Carrier): each prefix's candidates, with the prefix key
// they were computed under, as compact rows whose guards are positions in
// one mtbdd.Snapshot. It holds no node, so it keeps no manager alive, and
// it is immutable.
type BGPBase struct {
	key   BGPKey
	nvars int
	snap  *mtbdd.Snapshot
	// paths holds the AS paths rows name by index.
	paths    [][]uint32
	prefixes map[netip.Prefix]sealedPrefix
}

type sealedPrefix struct {
	key Fingerprint
	// rows are router-major, each router's in preference order.
	rows []bgpRow
}

// bgpRow is one sealed candidate, without what its place fixes: the
// prefix is the row's own, and the next hop follows from the topology —
// the far interface of OutEdge for a direct route, NextHopRouter's
// loopback otherwise.
type bgpRow struct {
	igpCost   int64
	guard     uint32 // position in BGPBase.snap
	path      int32  // index in BGPBase.paths
	router    topo.RouterID
	outEdge   topo.DirLinkID
	nhRouter  topo.RouterID
	localPref uint32
	flags     uint8
}

const (
	rowDirect uint8 = 1 << iota
	rowDeliver
	rowDiscard
	rowAdvertiseOnly
	rowFromEBGP
)

func rowFlags(c *BGPCand) uint8 {
	var f uint8
	for _, bit := range [...]struct {
		on   bool
		flag uint8
	}{{c.Direct, rowDirect}, {c.Deliver, rowDeliver}, {c.Discard, rowDiscard}, {c.AdvertiseOnly, rowAdvertiseOnly}, {c.FromEBGP, rowFromEBGP}} {
		if bit.on {
			f |= bit.flag
		}
	}
	return f
}

// Key is the BGP key the base was sealed under.
func (b *BGPBase) Key() BGPKey { return b.key }

// sealBGP seals every prefix of st's finished run, replayed ones included.
// The AS paths are st's table, which the replay interned its paths into.
func sealBGP(st *Stepper, keys *bgpKeys) *BGPBase {
	ribs := st.b.RIBs
	n := 0
	for _, rib := range ribs {
		for _, cands := range rib {
			n += len(cands)
		}
	}
	b := &BGPBase{
		key: keys.global, nvars: st.fv.M.NumVars(), paths: st.paths.paths,
		prefixes: make(map[netip.Prefix]sealedPrefix, len(keys.order)),
	}
	// rows never outgrows n, so each prefix's slice of it stays shared with
	// the guard positions filled in below.
	rows := make([]bgpRow, 0, n)
	roots := make([]*mtbdd.Node, 0, n)
	for i, pfx := range keys.order {
		from := len(rows)
		for r, rib := range ribs {
			for _, c := range rib[pfx] {
				rows = append(rows, bgpRow{
					igpCost: c.IGPCost, guard: uint32(len(roots)), path: c.path,
					router: topo.RouterID(r), outEdge: c.OutEdge, nhRouter: c.NextHopRouter,
					localPref: c.LocalPref, flags: rowFlags(c),
				})
				roots = append(roots, c.Guard)
			}
		}
		b.prefixes[pfx] = sealedPrefix{key: keys.prefix[i], rows: rows[from:len(rows):len(rows)]}
	}
	var at []uint32
	b.snap, at = mtbdd.NewSnapshot(st.fv.M, roots)
	for i := range rows {
		rows[i].guard = at[rows[i].guard]
	}
	return b
}

// replay adds the sealed candidates of every prefix in pfxs to the RIBs of
// st's finished run, in st's manager, and interns their AS paths into st's
// table. Candidates and RIB entries are cut from one slab each.
func (b *BGPBase) replay(st *Stepper, pfxs []netip.Prefix) {
	n := 0
	for _, pfx := range pfxs {
		n += len(b.prefixes[pfx].rows)
	}
	table := importSnapshot(st.fv, b.nvars, b.snap)
	net := st.fv.Net
	cands := make([]BGPCand, n)
	lists := make([]*BGPCand, n)
	path := make([]int32, len(b.paths)) // b's path index -> st's, plus one
	out := st.b
	i := 0
	for _, pfx := range pfxs {
		rows := b.prefixes[pfx].rows
		for j := 0; j < len(rows); {
			r, from := rows[j].router, i
			for ; j < len(rows) && rows[j].router == r; j++ {
				row := &rows[j]
				if path[row.path] == 0 {
					path[row.path] = st.paths.intern(b.paths[row.path]) + 1
				}
				c := &cands[i]
				*c = BGPCand{
					Prefix: pfx, Direct: row.flags&rowDirect != 0, OutEdge: row.outEdge,
					NextHopRouter: row.nhRouter, Deliver: row.flags&rowDeliver != 0,
					Discard: row.flags&rowDiscard != 0, AdvertiseOnly: row.flags&rowAdvertiseOnly != 0,
					LocalPref: row.localPref, FromEBGP: row.flags&rowFromEBGP != 0,
					IGPCost: row.igpCost, Guard: table[row.guard], path: path[row.path] - 1,
				}
				c.ASPath = st.paths.paths[c.path]
				if c.Direct {
					c.NextHop = net.Edge(c.OutEdge).RemoteAddr
				} else {
					c.NextHop = net.Router(c.NextHopRouter).Loopback
				}
				lists[i] = c
				i++
			}
			out.RIBs[r][pfx] = lists[from:i:i]
			out.stats.BGPEntries++
		}
	}
	out.stats.ASPaths = len(st.paths.paths) - 1
}
