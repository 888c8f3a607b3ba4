// Generated daemon deltas: the mutation sequences the incremental-vs-cold
// oracle (CheckDeltas, deltas_oracle_test.go), FuzzDeltas and the daemon's
// chaos and endurance tests (internal/serve) apply.
package difftest

import (
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/serve"
	"github.com/yu-verify/yu/internal/topo"
)

// deltaGen tracks what earlier deltas added, so remove operations are
// valid by construction.
type deltaGen struct {
	rng     *rand.Rand
	spec    *config.Spec
	statics map[string]map[netip.Prefix]bool // router -> added static prefixes
	flows   []string                         // added flow names
	nflows  int
	denies  map[string]bool // "router|neighbor|prefix" -> currently denied
}

// GenDeltas derives n daemon deltas from the spec, valid by construction
// when applied in order: every operation targets routers, links, and
// neighbors that exist, and removals only target earlier additions.
// Identical (rng state, spec, n) yield identical sequences.
func GenDeltas(rng *rand.Rand, spec *config.Spec, n int) []serve.Delta {
	g := &deltaGen{rng: rng, spec: spec, statics: make(map[string]map[netip.Prefix]bool), denies: make(map[string]bool)}
	for _, name := range sortedConfigNames(spec.Configs) {
		rc := spec.Configs[name]
		for _, nb := range rc.Neighbors {
			for _, p := range nb.ExportDeny {
				g.denies[name+"|"+nb.Addr.String()+"|"+p.String()] = true
			}
		}
	}
	out := make([]serve.Delta, 0, n)
	for len(out) < n {
		out = append(out, g.next())
	}
	return out
}

func (g *deltaGen) next() serve.Delta {
	for {
		switch g.rng.Intn(7) {
		case 0:
			return g.setLinkCost()
		case 1:
			return g.addStatic()
		case 2:
			if d, ok := g.removeStatic(); ok {
				return d
			}
		case 3:
			return g.addFlow()
		case 4:
			if d, ok := g.removeFlow(); ok {
				return d
			}
		case 5:
			if d, ok := g.setLocalPref(); ok {
				return d
			}
		case 6:
			if d, ok := g.flipExportDeny(); ok {
				return d
			}
		}
	}
}

func (g *deltaGen) routerName() string {
	net := g.spec.Net
	return net.Routers[g.rng.Intn(net.NumRouters())].Name
}

func (g *deltaGen) setLinkCost() serve.Delta {
	net := g.spec.Net
	l := net.Link(topo.LinkID(g.rng.Intn(net.NumLinks())))
	return serve.Delta{
		Op:   "set-link-cost",
		A:    net.Router(l.A).Name,
		B:    net.Router(l.B).Name,
		Cost: int64(1+g.rng.Intn(30)) * 100,
	}
}

func (g *deltaGen) addStatic() serve.Delta {
	r := g.routerName()
	var pfx netip.Prefix
	if len(g.spec.Flows) > 0 && g.rng.Intn(3) == 0 {
		// A /32 on an existing flow destination: splits that flow's
		// prefix class, the sharpest invalidation shape.
		f := g.spec.Flows[g.rng.Intn(len(g.spec.Flows))]
		pfx = netip.PrefixFrom(f.Dst, f.Dst.BitLen())
	} else {
		pfx = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(40 + g.rng.Intn(60)), 0, 0, 0}), 8)
	}
	if g.statics[r] == nil {
		g.statics[r] = make(map[netip.Prefix]bool)
	}
	g.statics[r][pfx] = true
	return serve.Delta{Op: "add-static", Router: r, Prefix: pfx.String(), Discard: true}
}

func (g *deltaGen) removeStatic() (serve.Delta, bool) {
	// Deterministic pick (first router by name, lowest prefix) so equal
	// rng states yield equal sequences — fuzz seeds must reproduce.
	var names []string
	for r, set := range g.statics {
		if len(set) > 0 {
			names = append(names, r)
		}
	}
	if len(names) == 0 {
		return serve.Delta{}, false
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	r := names[0]
	var best netip.Prefix
	for pfx := range g.statics[r] {
		if !best.IsValid() || pfx.String() < best.String() {
			best = pfx
		}
	}
	delete(g.statics[r], best)
	return serve.Delta{Op: "remove-static", Router: r, Prefix: best.String()}, true
}

func (g *deltaGen) addFlow() serve.Delta {
	g.nflows++
	name := fmt.Sprintf("dz%d", g.nflows)
	g.flows = append(g.flows, name)
	dst := netip.AddrFrom4([4]byte{10, byte(g.rng.Intn(200)), 0, byte(1 + g.rng.Intn(200))})
	if len(g.spec.Flows) > 0 && g.rng.Intn(2) == 0 {
		// Reuse an existing destination so the new flow lands in an
		// existing prefix class (exercises class-volume changes).
		dst = g.spec.Flows[g.rng.Intn(len(g.spec.Flows))].Dst
	}
	return serve.Delta{
		Op:      "add-flow",
		Flow:    name,
		Ingress: g.routerName(),
		Src:     netip.AddrFrom4([4]byte{10, 250, 0, byte(1 + g.rng.Intn(250))}).String(),
		Dst:     dst.String(),
		DSCP:    uint8(g.rng.Intn(2) * 5),
		Gbps:    float64(1 + g.rng.Intn(10)),
	}
}

func (g *deltaGen) removeFlow() (serve.Delta, bool) {
	if len(g.flows) == 0 {
		return serve.Delta{}, false
	}
	name := g.flows[len(g.flows)-1]
	g.flows = g.flows[:len(g.flows)-1]
	return serve.Delta{Op: "remove-flow", Flow: name}, true
}

// neighborTarget picks a deterministic (router, neighbor) pair from the
// spec's BGP sessions, if any exist.
func (g *deltaGen) neighborTarget() (string, netip.Addr, bool) {
	var routers []string
	for name, rc := range g.spec.Configs {
		if len(rc.Neighbors) > 0 {
			routers = append(routers, name)
		}
	}
	if len(routers) == 0 {
		return "", netip.Addr{}, false
	}
	// Sort-free determinism: pick by rng over a sorted copy.
	for i := 1; i < len(routers); i++ {
		for j := i; j > 0 && routers[j] < routers[j-1]; j-- {
			routers[j], routers[j-1] = routers[j-1], routers[j]
		}
	}
	r := routers[g.rng.Intn(len(routers))]
	nbs := g.spec.Configs[r].Neighbors
	return r, nbs[g.rng.Intn(len(nbs))].Addr, true
}

func (g *deltaGen) setLocalPref() (serve.Delta, bool) {
	r, nb, ok := g.neighborTarget()
	if !ok {
		return serve.Delta{}, false
	}
	return serve.Delta{
		Op:        "set-local-pref",
		Router:    r,
		Neighbor:  nb.String(),
		LocalPref: uint32(50 + 50*g.rng.Intn(6)),
	}, true
}

// flipExportDeny toggles an export-deny for an originated prefix on a
// random session — the Figure 10 misconfiguration, introduced or
// repaired at random.
func (g *deltaGen) flipExportDeny() (serve.Delta, bool) {
	r, nb, ok := g.neighborTarget()
	if !ok {
		return serve.Delta{}, false
	}
	var originated []netip.Prefix
	for _, name := range sortedConfigNames(g.spec.Configs) {
		originated = append(originated, g.spec.Configs[name].Networks...)
	}
	if len(originated) == 0 {
		return serve.Delta{}, false
	}
	pfx := originated[g.rng.Intn(len(originated))]
	// Track the deny state across the generated sequence so a remove is
	// only ever emitted while the deny is actually in place.
	key := r + "|" + nb.String() + "|" + pfx.String()
	op := "add-export-deny"
	if g.denies[key] {
		op = "remove-export-deny"
	}
	g.denies[key] = !g.denies[key]
	return serve.Delta{Op: op, Router: r, Neighbor: nb.String(), Prefix: pfx.String()}, true
}

func sortedConfigNames(cfgs config.Configs) []string {
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
