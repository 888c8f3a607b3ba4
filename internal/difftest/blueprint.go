package difftest

import (
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// blueprint is the mutable intermediate representation a Case is built
// from. The generator fills one in; the shrinker removes elements and
// rebuilds. Routers are never removed (flows, statics, and SR policies
// reference them by index), everything else is fair game.
type blueprint struct {
	nRouters int
	nAS      int
	// nofailLink is the index of a link excluded from the failure model,
	// -1 for none.
	nofailLink int

	links     []bpLink
	prefixes  []bpPrefix
	statics   []bpStatic
	srPols    []bpSR
	flows     []bpFlow
	lpTweaks  []bpLocalPref
	exDenies  []bpExportDeny
	loadProps []bpLoadProp
	delivered []bpDelivered

	k        int
	mode     topo.FailureMode
	overload float64
}

// asOf maps a router index to its 0-based AS: contiguous blocks along the
// ring, so every AS is internally connected by ring links. (A striped
// assignment leaves ASes with no intra-AS links — IGP islands whose iBGP
// sessions are all down — which is both unrealistic and a known class of
// engine divergence in degenerate route propagation.)
func (bp *blueprint) asOf(i int) int { return i * bp.nAS / bp.nRouters }

type bpLink struct {
	a, b int
	cost int64
	cap  float64
	// ring links guarantee connectivity and are exempt from shrinking.
	ring bool
}

type bpPrefix struct {
	owner int
	pfx   netip.Prefix
}

type bpStatic struct {
	owner   int
	pfx     netip.Prefix
	discard bool
	// via is the router whose loopback is the next hop when !discard.
	via       int
	redistrib bool
}

type bpSR struct {
	owner int
	dscp  int // config.AnyDSCP or a value
	paths []bpSRPath
}

type bpSRPath struct {
	segs   []int // router indices
	weight int64
}

type bpFlow struct {
	ingress int
	src     netip.Addr
	dst     netip.Addr
	dscp    uint8
	gbps    float64
}

type bpLocalPref struct {
	router, nb int
	pref       uint32
}

type bpExportDeny struct {
	router, nb, prefix int
}

type bpLoadProp struct {
	link     int // index into links
	directed bool
	dir      topo.Direction
	max      float64
}

type bpDelivered struct {
	prefix int
	// sub, when valid, narrows the bound from the routed prefix to part of
	// it (one half, or one flow's /32).
	sub      netip.Prefix
	min, max float64
}

// bound returns the prefix the delivered bound is on.
func (d bpDelivered) bound(bp *blueprint) netip.Prefix {
	if d.sub.IsValid() {
		return d.sub
	}
	return bp.prefixes[d.prefix].pfx
}

// genBlueprint draws a random blueprint: a multi-AS ring-plus-chords
// topology running IS-IS + BGP (eBGP inter-AS, iBGP full mesh per AS),
// sprinkled with SR policies (weighted ECMP across explicit paths),
// statics (discard and via), redistribution, local-pref and export-deny
// tweaks, and a random workload with properties. This is the promoted —
// and extended — random-spec builder that used to live in
// internal/core/random_diff_test.go.
func genBlueprint(rng *rand.Rand, opts Options) *blueprint {
	bp := &blueprint{nofailLink: -1}
	bp.nRouters = opts.MinRouters + rng.Intn(opts.MaxRouters-opts.MinRouters+1)
	bp.nAS = 1 + rng.Intn(opts.MaxASes)

	// Ring for connectivity + random chords. An "ECMP-rich" knob forces
	// uniform costs so equal-cost multipath shows up often.
	uniformCost := rng.Intn(2) == 0
	cost := func() int64 {
		if uniformCost {
			return 10
		}
		return int64(10 * (1 + rng.Intn(3)))
	}
	capacity := func() float64 {
		if rng.Intn(4) == 0 {
			return 40
		}
		return 100
	}
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	addLink := func(i, j int, ring bool) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		if seen[pair{i, j}] {
			return
		}
		seen[pair{i, j}] = true
		bp.links = append(bp.links, bpLink{a: i, b: j, cost: cost(), cap: capacity(), ring: ring})
	}
	for i := 0; i < bp.nRouters; i++ {
		addLink(i, (i+1)%bp.nRouters, true)
	}
	for c := 0; c < bp.nRouters/2+1; c++ {
		addLink(rng.Intn(bp.nRouters), rng.Intn(bp.nRouters), false)
	}
	if rng.Intn(6) == 0 {
		bp.nofailLink = rng.Intn(len(bp.links))
	}

	// 2-3 originated prefixes.
	nPfx := 2 + rng.Intn(2)
	for p := 0; p < nPfx; p++ {
		bp.prefixes = append(bp.prefixes, bpPrefix{
			owner: rng.Intn(bp.nRouters),
			pfx:   netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(p), 0, 0}), 24),
		})
	}

	// Occasionally a discard static with redistribution (the Fig 10
	// misconfiguration pattern), and occasionally a via static preferring
	// an explicit next hop over BGP (admin distance 1).
	discardOwner := -1
	if rng.Intn(3) == 0 {
		discardOwner = rng.Intn(bp.nRouters)
		bp.statics = append(bp.statics, bpStatic{
			owner:     discardOwner,
			pfx:       netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 0, 0, 0}), 8),
			discard:   true,
			redistrib: true,
		})
	}
	// Via-statics point at the prefix owner's loopback: still exercises
	// admin-distance-1-beats-BGP recursion, but keeps forwarding
	// destination-consistent (everyone moves toward the owner), so no
	// routing loops — loops make load ill-defined and the engines model
	// them differently on purpose.
	// The via-static must not land on the redistributing router:
	// redistribution is per-router, and re-advertising a via-static for
	// someone else's prefix sets up a hot-potato ECMP tie that bounces
	// traffic between the advertiser and the origin — a livelock whose
	// truncation depth the engines legitimately disagree on.
	if rng.Intn(4) == 0 {
		p := rng.Intn(len(bp.prefixes))
		owner := rng.Intn(bp.nRouters)
		if owner != bp.prefixes[p].owner && owner != discardOwner {
			bp.statics = append(bp.statics, bpStatic{
				owner: owner,
				pfx:   bp.prefixes[p].pfx,
				via:   bp.prefixes[p].owner,
			})
		}
	}

	// SR policies inside multi-router ASes: weighted two-path steering
	// with randomized weights (the weighted-ECMP knob) and sometimes a
	// DSCP match.
	if rng.Intn(2) == 0 {
		perAS := make([][]int, bp.nAS)
		for i := 0; i < bp.nRouters; i++ {
			perAS[bp.asOf(i)] = append(perAS[bp.asOf(i)], i)
		}
		for as := 0; as < bp.nAS; as++ {
			members := perAS[as]
			if len(members) < 3 {
				continue
			}
			src := members[rng.Intn(len(members))]
			mid := members[rng.Intn(len(members))]
			end := members[rng.Intn(len(members))]
			if src == mid || mid == end || src == end {
				continue
			}
			dscp := config.AnyDSCP
			if rng.Intn(2) == 0 {
				dscp = 5
			}
			bp.srPols = append(bp.srPols, bpSR{
				owner: src,
				dscp:  dscp,
				paths: []bpSRPath{
					{segs: []int{end}, weight: int64(1 + rng.Intn(99))},
					{segs: []int{mid, end}, weight: int64(1 + rng.Intn(99))},
				},
			})
			break
		}
	}

	// BGP policy tweaks on the auto-meshed sessions: a local-pref
	// override and an export-deny (both resolved against the session list
	// EBGPSessionsFullMesh builds, which is deterministic).
	if rng.Intn(3) == 0 {
		pref := uint32(50)
		if rng.Intn(2) == 0 {
			pref = 200
		}
		bp.lpTweaks = append(bp.lpTweaks, bpLocalPref{
			router: rng.Intn(bp.nRouters), nb: rng.Intn(4), pref: pref,
		})
	}
	if rng.Intn(4) == 0 {
		bp.exDenies = append(bp.exDenies, bpExportDeny{
			router: rng.Intn(bp.nRouters), nb: rng.Intn(4),
			prefix: rng.Intn(len(bp.prefixes)),
		})
	}

	// Random workload.
	nFlows := 2 + rng.Intn(opts.MaxFlows-1)
	for f := 0; f < nFlows; f++ {
		p := rng.Intn(len(bp.prefixes))
		var dscp uint8
		if rng.Intn(2) == 0 {
			dscp = 5
		}
		dst := bp.prefixes[p].pfx.Addr()
		for o := rng.Intn(4); o >= 0; o-- {
			dst = dst.Next()
		}
		bp.flows = append(bp.flows, bpFlow{
			ingress: rng.Intn(bp.nRouters),
			src:     netip.AddrFrom4([4]byte{9, 9, byte(f), 1}),
			dst:     dst,
			dscp:    dscp,
			gbps:    float64(1 + rng.Intn(50)),
		})
	}

	// Properties: the all-links overload factor plus occasionally an
	// explicit max bound and a delivered floor.
	bp.overload = 0.4 + 0.2*float64(rng.Intn(4))
	if rng.Intn(4) == 0 {
		bp.loadProps = append(bp.loadProps, bpLoadProp{
			link:     rng.Intn(len(bp.links)),
			directed: rng.Intn(2) == 0,
			dir:      topo.Direction(rng.Intn(2)),
			max:      float64(20 + rng.Intn(50)),
		})
	}
	if rng.Intn(3) == 0 {
		p := rng.Intn(len(bp.prefixes))
		total := 0.0
		for _, f := range bp.flows {
			if bp.prefixes[p].pfx.Contains(f.dst) {
				total += f.gbps
			}
		}
		if total > 0 {
			bp.delivered = append(bp.delivered, bpDelivered{
				prefix: p,
				min:    total * (0.5 + 0.4*rng.Float64()),
				max:    infinity,
			})
		}
	}

	// Failure budget and mode.
	bp.k = 1 + rng.Intn(opts.MaxK)
	bp.mode = topo.FailLinks
	if !opts.LinkMode && rng.Intn(5) == 0 {
		bp.mode = topo.FailRouters
		bp.k = 1
	}

	// Delivered bounds below a routed prefix. Flows to one routed prefix
	// match the same configured prefixes, so global equivalence merges them
	// whatever their destination: a bound on half of the prefix, or on one
	// flow's /32, cuts through a class and must still count exactly the
	// member flows inside it. The ceiling is the offered volume, which no
	// scenario exceeds; the floor is a share of it, as for whole prefixes.
	// (Drawn last, so every earlier draw of a seed is what it always was.)
	if rng.Intn(2) == 0 {
		p := rng.Intn(len(bp.prefixes))
		pfx := bp.prefixes[p].pfx
		// Spread the prefix's flows over both halves first.
		for i := range bp.flows {
			if f := &bp.flows[i]; pfx.Contains(f.dst) && rng.Intn(2) == 0 {
				a := f.dst.As4()
				a[3] |= 0x80
				f.dst = netip.AddrFrom4(a)
			}
		}
		half := pfx.Addr().As4()
		half[3] = byte(rng.Intn(2)) << 7
		subs := []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4(half), pfx.Bits()+1)}
		if f := bp.flows[rng.Intn(len(bp.flows))]; pfx.Contains(f.dst) {
			subs = append(subs, netip.PrefixFrom(f.dst, 32))
		}
		for _, sub := range subs {
			total := 0.0
			for _, f := range bp.flows {
				if sub.Contains(f.dst) {
					total += f.gbps
				}
			}
			bp.delivered = append(bp.delivered, bpDelivered{
				prefix: p, sub: sub,
				min: total * (0.5 + 0.4*rng.Float64()),
				max: total,
			})
		}
	}
	return bp
}

// build materializes the blueprint into a validated Case.
func (bp *blueprint) build() (*Case, error) {
	b := topo.NewBuilder()
	names := make([]string, bp.nRouters)
	for i := 0; i < bp.nRouters; i++ {
		names[i] = fmt.Sprintf("r%d", i)
		b.AddRouter(names[i], uint32(1+bp.asOf(i)))
	}
	for li, l := range bp.links {
		opts := []topo.LinkOpt{topo.WithCost(l.cost), topo.WithCapacity(l.cap)}
		if li == bp.nofailLink {
			opts = append(opts, topo.LinkNoFail())
		}
		b.AddLink(names[l.a], names[l.b], opts...)
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	cfgs := make(config.Configs)
	for _, p := range bp.prefixes {
		cfgs.Get(names[p.owner]).Networks = append(cfgs.Get(names[p.owner]).Networks, p.pfx)
	}
	for _, st := range bp.statics {
		rc := cfgs.Get(names[st.owner])
		sr := config.StaticRoute{Prefix: st.pfx, Discard: st.discard}
		if !st.discard {
			sr.NextHop = net.Router(topo.RouterID(st.via)).Loopback
		}
		rc.Statics = append(rc.Statics, sr)
		if st.redistrib {
			rc.RedistributeStatic = true
		}
	}
	config.EBGPSessionsFullMesh(net, cfgs)
	for _, p := range bp.srPols {
		var paths []config.SRPath
		for _, bpath := range p.paths {
			var segs []netip.Addr
			for _, s := range bpath.segs {
				segs = append(segs, net.Router(topo.RouterID(s)).Loopback)
			}
			paths = append(paths, config.SRPath{Segments: segs, Weight: bpath.weight})
		}
		end := p.paths[0].segs[len(p.paths[0].segs)-1]
		cfgs.Get(names[p.owner]).SRPolicies = append(cfgs.Get(names[p.owner]).SRPolicies,
			config.SRPolicy{
				Endpoint:  netip.PrefixFrom(net.Router(topo.RouterID(end)).Loopback, 32),
				MatchDSCP: p.dscp,
				Paths:     paths,
			})
	}
	// Session tweaks land on eBGP sessions only, selected from the
	// deterministic auto-mesh neighbor lists. Local-pref is an eBGP import
	// knob in both engines, and an iBGP export-deny hides routes from
	// same-AS peers — the classic recipe for forwarding deflection loops,
	// under which traffic load is ill-defined. Routers with no eBGP
	// sessions skip the tweak.
	ebgpIdx := func(ri int) []int {
		var idx []int
		for j, nb := range cfgs.Get(names[ri]).Neighbors {
			if nb.RemoteAS != uint32(1+bp.asOf(ri)) {
				idx = append(idx, j)
			}
		}
		return idx
	}
	for _, t := range bp.lpTweaks {
		if idx := ebgpIdx(t.router); len(idx) > 0 {
			cfgs.Get(names[t.router]).Neighbors[idx[t.nb%len(idx)]].LocalPref = t.pref
		}
	}
	for _, d := range bp.exDenies {
		if d.prefix >= len(bp.prefixes) {
			continue
		}
		if idx := ebgpIdx(d.router); len(idx) > 0 {
			nb := &cfgs.Get(names[d.router]).Neighbors[idx[d.nb%len(idx)]]
			nb.ExportDeny = append(nb.ExportDeny, bp.prefixes[d.prefix].pfx)
		}
	}
	if err := cfgs.Validate(net); err != nil {
		return nil, err
	}
	spec := &config.Spec{Net: net, Configs: cfgs, K: bp.k, Mode: bp.mode}
	for f, bf := range bp.flows {
		spec.Flows = append(spec.Flows, topo.Flow{
			Name:    fmt.Sprintf("f%d", f),
			Ingress: topo.RouterID(bf.ingress),
			Src:     bf.src,
			Dst:     bf.dst,
			DSCP:    bf.dscp,
			Gbps:    bf.gbps,
		})
	}
	for _, p := range bp.loadProps {
		if p.link >= len(bp.links) {
			continue
		}
		spec.Props = append(spec.Props, topo.LoadBound{
			Link: topo.LinkID(p.link), Dir: p.dir, DirSpecified: p.directed,
			Min: 0, Max: p.max,
		})
	}
	for _, d := range bp.delivered {
		if d.prefix >= len(bp.prefixes) {
			continue
		}
		spec.Delivered = append(spec.Delivered, topo.DeliveredBound{
			Prefix: d.bound(bp), Min: d.min, Max: d.max,
		})
	}
	return &Case{Spec: spec, K: bp.k, Mode: bp.mode, OverloadFactor: bp.overload, bp: bp}, nil
}

// clone deep-copies the blueprint so shrink candidates never alias.
func (bp *blueprint) clone() *blueprint {
	c := *bp
	c.links = append([]bpLink(nil), bp.links...)
	c.prefixes = append([]bpPrefix(nil), bp.prefixes...)
	c.statics = append([]bpStatic(nil), bp.statics...)
	c.srPols = append([]bpSR(nil), bp.srPols...)
	c.flows = append([]bpFlow(nil), bp.flows...)
	c.lpTweaks = append([]bpLocalPref(nil), bp.lpTweaks...)
	c.exDenies = append([]bpExportDeny(nil), bp.exDenies...)
	c.loadProps = append([]bpLoadProp(nil), bp.loadProps...)
	c.delivered = append([]bpDelivered(nil), bp.delivered...)
	return &c
}
