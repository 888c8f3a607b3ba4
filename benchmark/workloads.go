package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/serve"
	"github.com/yu-verify/yu/internal/topo"
)

// defaultSeed is the seed the golden digests were recorded at.
const defaultSeed = 10

// pipeline selects which user path a workload drives.
type pipeline int

const (
	pipeVerify    pipeline = iota // Network.Verify, monolithic
	pipePortfolio                 // Network.VerifyPortfolio
	pipeModular                   // Network.Verify with Domains
	pipeDaemon                    // HTTP against serve.Server.Handler()
)

// variants is how many inputs a run draws from its seed. The timed
// iterations cycle through them, so a run's medians are taken over
// several draws of the traffic rather than one: at equal sizes the flow
// draw alone moves a verify by ±7% and its peak RSS by ±10%, as much as
// the host's own noise, and a median over one draw would carry all of it
// from seed to seed (README, "Seeds").
const variants = 4

// variantSeed is the seed of a run's v-th input. Runs at different
// -seed values share no input.
func variantSeed(seed int64, v int) int64 { return seed*variants + int64(v) }

// shape is a workload's input sizing. The topology generator seed is
// part of the shape, not derived from -seed: symbolic verification cost
// swings ±30% from one random WAN to the next at equal router and link
// counts, which no regression bound survives, so -seed redraws the
// traffic, the portfolio, the delta mix and the witness sample on a
// pinned topology (README, "Seeds").
type shape struct {
	pipe pipeline

	// WAN workloads.
	routers, links, prefixes int
	topoSeed                 int64
	flows                    int
	flowSeedOff              int64 // flow generator seed = -seed + flowSeedOff

	// modular workload (gen.MultiDomain).
	domains, routersPer, prefixesPer, flowsPer int

	k       int
	workers int // 0 = min(nproc, 4), recorded in the output

	// portfolio size (pipePortfolio), and per-query size on the daemon.
	props int

	// daemon script length: the most a run sends, however long -seconds is.
	deltas, tlpQueries int

	// minIters is the floor on timed iterations (script rounds on the
	// daemon) however short -seconds is.
	minIters int
}

type workload struct {
	name string
	shape
}

// workloads is the fixed matrix. The layer mix of each follows ISSUE
// 11's table; the sizes are smaller than the table's wherever one verify
// took more than about two seconds, so that a run of BENCHMARK.json's
// run_seconds takes a median over six or more timed operations instead
// of three (README, "Sizes"). minIters is variants: every input of a run
// is verified and checked at least once.
var workloads = []workload{
	{
		name:  "wan-k1",
		shape: shape{pipe: pipeVerify, routers: 120, links: 300, prefixes: 60, topoSeed: 11, flows: 6000, flowSeedOff: 101, k: 1, workers: 1, minIters: variants},
	},
	{
		name:  "wan-k2",
		shape: shape{pipe: pipeVerify, routers: 50, links: 100, prefixes: 32, topoSeed: 3, flows: 2500, flowSeedOff: 100, k: 2, workers: 1, minIters: variants},
	},
	{
		name:  "wan-k2-par",
		shape: shape{pipe: pipeVerify, routers: 50, links: 100, prefixes: 32, topoSeed: 3, flows: 2500, flowSeedOff: 100, k: 2, workers: 0, minIters: variants},
	},
	{
		name:  "portfolio-1k",
		shape: shape{pipe: pipePortfolio, routers: 80, links: 160, prefixes: 48, topoSeed: 10, flows: 4000, flowSeedOff: 100, k: 1, workers: 1, props: 1000, minIters: variants},
	},
	{
		name:  "modular",
		shape: shape{pipe: pipeModular, domains: 8, routersPer: 20, prefixesPer: 6, flowsPer: 16, k: 2, workers: 1, minIters: variants},
	},
	{
		name:  "daemon",
		shape: shape{pipe: pipeDaemon, routers: 60, links: 120, prefixes: 36, topoSeed: 10, flows: 3000, flowSeedOff: 100, k: 1, workers: 1, props: 200, deltas: 64, tlpQueries: 32, minIters: 4},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// overloadFactor is the all-links utilization limit every Verify
// workload checks (the paper's "no link above capacity").
const overloadFactor = 1.0

// input is everything one workload run feeds the verifier: generated
// from the seed, rendered to text, and nothing else.
type input struct {
	sh       shape
	specText string
	workers  int
	// props is the portfolio-1k portfolio. WAN router names contain '-',
	// which the `tlp link A-B` text form cannot carry, so the portfolio
	// travels as values bound to link IDs (stable across parses of one
	// text) the way yu verify -tlp resolves them.
	props []topo.TLProp
	// daemon script.
	deltas   []serve.Delta
	tlpTexts []string
}

func (in *input) verifyOptions() yu.VerifyOptions {
	o := yu.VerifyOptions{K: in.sh.k, Mode: topo.FailLinks, ModeSet: true, Workers: in.workers}
	if in.sh.pipe != pipePortfolio {
		o.OverloadFactor = overloadFactor
	}
	return o
}

func effectiveWorkers(sh shape) int {
	if sh.workers > 0 {
		return sh.workers
	}
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 2 {
		n = 2 // still the sharded path, so a 1-core host exercises the same code
	}
	return n
}

// generateAll builds a run's inputs from its seed. It is the whole of
// set-up for the batch workloads and is timed as setup_s.
func generateAll(sh shape, seed int64) ([]*input, error) {
	ins := make([]*input, variants)
	for v := range ins {
		vsh := sh
		if v < variants-1 {
			vsh.deltas, vsh.tlpQueries = 0, 0 // the daemon's script runs on the last input only
		}
		var err error
		if ins[v], err = generate(vsh, variantSeed(seed, v)); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// generate builds one input from its seed.
func generate(sh shape, seed int64) (*input, error) {
	in := &input{sh: sh, workers: effectiveWorkers(sh)}
	var spec *config.Spec
	var err error
	if sh.pipe == pipeModular {
		// The double-ring topology is fixed by the shape; the seed places
		// the prefixes and draws the intra-domain flows.
		spec, err = gen.MultiDomain(gen.MultiDomainSpec{
			Domains: sh.domains, RoutersPer: sh.routersPer, PrefixesPer: sh.prefixesPer,
			FlowsPer: sh.flowsPer, K: sh.k, Seed: seed + 10,
		})
		if err != nil {
			return nil, err
		}
	} else {
		spec, err = gen.WAN(gen.WANSpec{
			Routers: sh.routers, Links: sh.links, Prefixes: sh.prefixes,
			SRPolicyFraction: 0.1, Seed: sh.topoSeed,
		})
		if err != nil {
			return nil, err
		}
		spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{
			Count: sh.flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: seed + sh.flowSeedOff,
		})
		if err != nil {
			return nil, err
		}
		spec.K = sh.k
	}
	in.specText, err = canon.FormatSpec(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	switch sh.pipe {
	case pipePortfolio:
		in.props = portfolio(spec, sh.props, rng, false)
	case pipeDaemon:
		in.deltas = deltaScript(spec, sh.deltas, rng)
		for q := 0; q < sh.tlpQueries; q++ {
			in.tlpTexts = append(in.tlpTexts, portfolioText(spec.Net, portfolio(spec, sh.props, rng, true)))
		}
	}
	return in, nil
}

// portfolio builds a size-property portfolio in the shape of
// internal/bench.tlpPortfolio: property 0 is the network-wide
// utilization bound (it aggregates and scans every directed link, so
// coverage is the same at any size), the rest cycle load bound /
// single-link utilization / delivered / conditional load bound over the
// links, piling properties onto subjects already scanned. The rng
// shifts which links and thresholds the cycle lands on. textForm
// restricts the portfolio to what the /v1/tlp text form can name on a
// network whose router names contain '-': directed subjects only and no
// if-failed guards.
func portfolio(spec *config.Spec, size int, rng *rand.Rand, textForm bool) []topo.TLProp {
	net := spec.Net
	prefixes := gen.Prefixes(spec)
	off := rng.Intn(net.NumLinks())
	props := make([]topo.TLProp, 0, size)
	props = append(props, topo.TLProp{Kind: topo.TLPUtil, AllLinks: true, Factor: 1.0})
	for i := 0; len(props) < size; i++ {
		link := topo.LinkID((i + off) % net.NumLinks())
		dir := topo.Direction(rng.Intn(2))
		p := topo.TLProp{Link: link, Dir: dir, DirSpecified: textForm}
		switch i % 4 {
		case 0:
			p.Kind, p.Max = topo.TLPLinkLoad, float64(50+rng.Intn(200))
		case 1:
			p.Kind, p.Factor = topo.TLPUtil, 0.5+float64(rng.Intn(50))/100
		case 2:
			p = topo.TLProp{Kind: topo.TLPDelivered, Prefix: prefixes[(i+off)%len(prefixes)],
				Min: float64(rng.Intn(10)), Max: math.Inf(1)}
		case 3:
			p.Kind, p.Max = topo.TLPLinkLoad, float64(80+rng.Intn(150))
			if !textForm {
				p.CondSet, p.CondLink = true, topo.LinkID((i+off+1)%net.NumLinks())
			}
		}
		props = append(props, p)
	}
	return props
}

func portfolioText(net *topo.Network, props []topo.TLProp) string {
	var sb strings.Builder
	for _, p := range props {
		sb.WriteString("tlp ")
		sb.WriteString(canon.FormatProp(net, p))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// deltaOps is the daemon's whole mutation vocabulary, in the order the
// script cycles through it. The order is fixed, not seeded, so that a
// run of any length has the same composition whatever the seed: one
// set-link-cost (it moves the IGP, so nothing stays warm) costs 1.6× the
// others, and a p50 over a mix that changes with the seed would measure
// the mix. Each removal comes after the addition it undoes.
var deltaOps = []string{
	"add-flow", "set-link-cost", "add-static", "set-local-pref",
	"add-export-deny", "remove-flow", "remove-static", "remove-export-deny",
}

// deltaScript derives n single-delta batches, valid when applied in
// order: deltaOps cycled, each with seeded targets.
func deltaScript(spec *config.Spec, n int, rng *rand.Rand) []serve.Delta {
	net := spec.Net
	var sessions []struct {
		router string
		nb     netip.Addr
	}
	for _, r := range net.Routers {
		if rc, ok := spec.Configs[r.Name]; ok {
			for _, nb := range rc.Neighbors {
				sessions = append(sessions, struct {
					router string
					nb     netip.Addr
				}{r.Name, nb.Addr})
			}
		}
	}
	prefixes := gen.Prefixes(spec)
	var statics, denies, flows []serve.Delta // additions not yet undone
	undo := map[string]*[]serve.Delta{"remove-static": &statics, "remove-export-deny": &denies, "remove-flow": &flows}
	// added rejects a repeated addition: the daemon's remove ops drop every
	// matching entry, so undoing a duplicate twice would fail.
	seen := make(map[string]bool)
	added := func(d serve.Delta) bool {
		key := d.Op + "|" + d.Router + "|" + d.Neighbor + "|" + d.Prefix
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}
	out := make([]serve.Delta, 0, n)
	for len(out) < n {
		op := deltaOps[len(out)%len(deltaOps)]
		var d serve.Delta
		switch op {
		case "set-link-cost":
			l := net.Link(topo.LinkID(rng.Intn(net.NumLinks())))
			d = serve.Delta{Op: op, A: net.Router(l.A).Name, B: net.Router(l.B).Name, Cost: l.CostAB + int64(10*(1+rng.Intn(3)))}
		case "add-static":
			// A discard /32 on a live flow destination: splits that flow's
			// prefix class, the sharpest invalidation shape.
			for ok := false; !ok; ok = added(d) {
				f := spec.Flows[rng.Intn(len(spec.Flows))]
				d = serve.Delta{Op: op, Router: net.Routers[rng.Intn(net.NumRouters())].Name,
					Prefix: netip.PrefixFrom(f.Dst, f.Dst.BitLen()).String(), Discard: true}
			}
			statics = append(statics, d)
		case "set-local-pref":
			s := sessions[rng.Intn(len(sessions))]
			d = serve.Delta{Op: op, Router: s.router, Neighbor: s.nb.String(), LocalPref: uint32(50 + 50*rng.Intn(6))}
		case "add-export-deny":
			for ok := false; !ok; ok = added(d) {
				s := sessions[rng.Intn(len(sessions))]
				d = serve.Delta{Op: op, Router: s.router, Neighbor: s.nb.String(), Prefix: prefixes[rng.Intn(len(prefixes))].String()}
			}
			denies = append(denies, d)
		case "add-flow":
			f := spec.Flows[rng.Intn(len(spec.Flows))]
			d = serve.Delta{Op: op, Flow: fmt.Sprintf("bench%d", len(out)), Ingress: net.Routers[rng.Intn(net.NumRouters())].Name,
				Src: "10.250.0.1", Dst: f.Dst.String(), DSCP: uint8(rng.Intn(2) * 5), Gbps: float64(1 + rng.Intn(10))}
			flows = append(flows, d)
		default: // the three removals
			pending := undo[op]
			i := rng.Intn(len(*pending))
			d = (*pending)[i]
			d.Op = op
			*pending = append((*pending)[:i], (*pending)[i+1:]...)
		}
		out = append(out, d)
	}
	return out
}
