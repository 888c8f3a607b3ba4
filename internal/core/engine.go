// Package core implements YU's primary contribution: symbolic traffic
// execution (paper §4) and k-failure traffic load property verification
// (§4.5, §5) on top of guarded RIBs from symbolic route simulation.
//
// The forwarding process of each flow is executed once, symbolically, over
// all failure scenarios: every router/link state is a boolean variable and
// the fraction of a flow's traffic on each directed link is a
// pseudo-boolean function represented as an MTBDD (the symbolic traffic
// fraction, STF). Every MTBDD produced along the way is kept small with
// KREDUCE (§5.2), and per-link verification aggregates flows through
// link-local equivalence classes (§5.3), which hash-consing turns into
// pointer-keyed grouping.
package core

import (
	"context"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Options tunes the engine; the zero value enables every optimization.
type Options struct {
	// MaxIterations bounds symbolic traffic execution (Algorithm 1's I,
	// the TTL analogue). 0 derives a bound from the network diameter and
	// the longest SR segment list.
	MaxIterations int
	// DisableLinkLocalEquiv turns off the §5.3 flow grouping when
	// aggregating per-link traffic loads (ablation for Fig 13/14).
	DisableLinkLocalEquiv bool
	// DisableGlobalEquiv turns off global flow equivalence (§6): merging
	// flows with identical (ingress, destination class, DSCP) before
	// execution, and executing only once the classes that forward alike.
	DisableGlobalEquiv bool
	// CheckK, when > 0, applies KReduce(·, CheckK) to each aggregated
	// STL immediately before the terminal scan. It is how the
	// "w/o MTBDD reduction" ablation (budget -1 in FailVars) still
	// yields verdicts restricted to at most CheckK failures.
	CheckK int
	// GCThreshold is the live MTBDD node count that triggers a managed
	// garbage collection between flow executions (0 = default ~4M).
	GCThreshold int
	// Ctx, when non-nil, makes the run cancellable: it is polled inside
	// MTBDD operations (via the manager interrupt hook) and at per-flow
	// and per-link boundaries. Cancellation surfaces as
	// govern.ErrCanceled / govern.ErrDeadline from Verifier.Run.
	Ctx context.Context
	// NodeBudget, when > 0, bounds the live nodes of the engine's manager.
	// A breach first triggers a managed GC and one retry; a retry that
	// still breaches fails the step with govern.ErrNodeBudget.
	NodeBudget int
	// Configs is ignored; benchmark/ still sets it.
	Configs config.Configs
	// Obs, when non-nil, collects run metrics: phase timings, stage
	// counters, and per-manager MTBDD stats (DESIGN.md §11). nil disables
	// all recording at zero cost.
	Obs *obs.Registry
	// STFCache, when non-nil, is consulted by the verifier before
	// executing each equivalence class and fed every freshly
	// executed STF — the reuse hook of the incremental daemon
	// (internal/serve). See the STFCache interface contract.
	STFCache STFCache
	// ClassifyPrefixes, when non-nil, overrides the prefix set the
	// destination classifier is built from. The compositional pipeline
	// (internal/compose) passes the global prefix union here so a
	// domain engine — and the final check engine over an empty route-sim
	// result — classifies destinations exactly as the monolithic engine
	// would, keeping equivalence classes and their order identical.
	ClassifyPrefixes []netip.Prefix
}

// Engine executes flows symbolically against one route-simulation result.
// It is not safe for concurrent use (it shares the MTBDD manager).
type Engine struct {
	net  *topo.Network
	rs   *routesim.Result
	fv   *routesim.FailVars
	m    *mtbdd.Manager
	opts Options

	classifier  *classifier
	maxIter     int
	gcThreshold int

	// What only execution uses (execute.go, forward.go); Verifier.Trim drops
	// it. steps and memo hold nodes: they are roots of Engine.roots.
	igpCache map[igpKey]*igpVec
	steps    map[stepKey]*step    // forwarding steps, by what forwarding reads
	memo     map[memoKey]*FlowSTF // finished STFs, by behaviour
	fwd      fwdClasses
	stacks   stackTab
	scratch  execScratch
	// stepHits counts step-cache hits since the last flush into count.
	stepHits int
	count    execCounters
}

// NewEngine creates an engine over a route simulation result.
func NewEngine(rs *routesim.Result, opts Options) *Engine {
	e := &Engine{
		net:      rs.Vars.Net,
		rs:       rs,
		fv:       rs.Vars,
		m:        rs.Vars.M,
		opts:     opts,
		igpCache: make(map[igpKey]*igpVec),
		steps:    make(map[stepKey]*step),
		memo:     make(map[memoKey]*FlowSTF),
		fwd:      newFwdClasses(),
		stacks:   newStackTab(),
		count:    newExecCounters(opts.Obs),
	}
	installGovernance(e.m, opts)
	e.classifier = newClassifier(rs, opts.ClassifyPrefixes)
	e.maxIter = opts.MaxIterations
	if e.maxIter <= 0 {
		longestSR := 0
		for _, pols := range rs.SR {
			for _, p := range pols {
				for _, path := range p.Paths {
					if len(path.Segments) > longestSR {
						longestSR = len(path.Segments)
					}
				}
			}
		}
		e.maxIter = e.net.HopBound(longestSR)
	}
	return e
}

// Manager exposes the engine's MTBDD manager (for stats and evaluation).
func (e *Engine) Manager() *mtbdd.Manager { return e.m }

// Vars exposes the failure-variable mapping.
func (e *Engine) Vars() *routesim.FailVars { return e.fv }

// Net exposes the topology.
func (e *Engine) Net() *topo.Network { return e.net }

// classifier groups destination addresses into prefix classes: two
// addresses in the same class match exactly the same configured prefixes
// on every router, so they share all forwarding encodings (§4.4,
// "pre-computed and cached (with prefix classification)").
type classifier struct {
	prefixes []netip.Prefix
	classes  map[string]int
	byAddr   map[netip.Addr]int
	members  [][]netip.Prefix
}

func newClassifier(rs *routesim.Result, override []netip.Prefix) *classifier {
	set := make(map[netip.Prefix]struct{})
	if override != nil || rs == nil {
		for _, pfx := range override {
			set[pfx] = struct{}{}
		}
	} else {
		for _, rib := range rs.BGP.RIBs {
			for pfx := range rib {
				set[pfx] = struct{}{}
			}
		}
		for _, sts := range rs.Statics {
			for _, st := range sts {
				set[st.Prefix] = struct{}{}
			}
		}
	}
	c := &classifier{
		classes: make(map[string]int),
		byAddr:  make(map[netip.Addr]int),
	}
	for pfx := range set {
		c.prefixes = append(c.prefixes, pfx)
	}
	sort.Slice(c.prefixes, func(i, j int) bool {
		a, b := c.prefixes[i], c.prefixes[j]
		if a.Bits() != b.Bits() {
			return a.Bits() > b.Bits()
		}
		return a.Addr().Less(b.Addr())
	})
	return c
}

// classOf returns the prefix class of addr, creating it on first use.
func (c *classifier) classOf(addr netip.Addr) int {
	if id, ok := c.byAddr[addr]; ok {
		return id
	}
	var matched []netip.Prefix
	var sb strings.Builder
	for _, pfx := range c.prefixes {
		if pfx.Contains(addr) {
			matched = append(matched, pfx)
			sb.WriteString(pfx.String())
			sb.WriteByte(';')
		}
	}
	key := sb.String()
	id, ok := c.classes[key]
	if !ok {
		id = len(c.members)
		c.classes[key] = id
		c.members = append(c.members, matched)
	}
	c.byAddr[addr] = id
	return id
}

// matchedPrefixes returns the prefixes of a class, most specific first.
func (c *classifier) matchedPrefixes(class int) []netip.Prefix {
	return c.members[class]
}

// stack is a label stack: the remaining SR segments, front first. The
// empty stack means plain IP forwarding.
type stack []topo.RouterID

// stackID names a label stack interned in an engine's stackTab; 0 is the
// empty stack.
type stackID int32

// stackTab interns an engine's label stacks, so that a step out and a
// wavefront cell carry an integer and no key is built or hashed per cell. It
// keeps each stack's decimal key ("3,12,") for one purpose: AddK on fractions
// is not associative, so outs and cells that tie on link or router are
// visited in the order of those strings ("10," before "9,"), the order the
// execution has always used.
type stackTab struct {
	stacks []stack
	keys   []string
	ids    map[string]stackID
	buf    []byte
}

func newStackTab() stackTab {
	return stackTab{stacks: []stack{nil}, keys: []string{""}, ids: make(map[string]stackID)}
}

// intern returns s's id, assigning the next one on first sight. It runs
// while a step is built, never per wavefront cell.
func (t *stackTab) intern(s stack) stackID {
	if len(s) == 0 {
		return 0
	}
	t.buf = t.buf[:0]
	for _, r := range s {
		t.buf = strconv.AppendInt(t.buf, int64(r), 10)
		t.buf = append(t.buf, ',')
	}
	if id, ok := t.ids[string(t.buf)]; ok {
		return id
	}
	id, key := stackID(len(t.stacks)), string(t.buf)
	t.ids[key] = id
	t.stacks = append(t.stacks, s)
	t.keys = append(t.keys, key)
	return id
}

// compare orders two stacks by their decimal keys.
func (t *stackTab) compare(a, b stackID) int {
	if a == b {
		return 0
	}
	return strings.Compare(t.keys[a], t.keys[b])
}

// stepOut is one cell of the paper's matrix M for one unit of arriving
// traffic: the fraction forwarded onto a directed link, toward the router at
// its far end, carrying a label stack.
type stepOut struct {
	link  topo.DirLinkID
	to    topo.RouterID
	stack stackID
	frac  *mtbdd.Node
}

// step is the cached unit-forwarding behavior of one router for one
// (forwarding class, dscp, stack) situation: where one unit of arriving
// traffic goes. All MTBDDs are already KReduce'd. A step is immutable once
// cached.
type step struct {
	// outs is sorted by (link, stack key) while the step is built; the
	// wavefront walks it as it is.
	outs []stepOut
	// delivered is the fraction terminating here (destination attached).
	delivered *mtbdd.Node
	// dropped is the fraction discarded here (null route / no route).
	dropped *mtbdd.Node
	// dscpSensitive is set when building the step consulted an SR policy that
	// names a DSCP: a flow with another DSCP may forward differently here.
	dscpSensitive bool
}

// anyDSCP keys a step, or a finished STF, that every DSCP shares.
const anyDSCP int16 = -1

// stepKey addresses the step cache by what forwarding reads: the router, the
// destination's forwarding class (forward.go), the DSCP — anyDSCP once the
// step is known not to depend on it — and the arriving label stack.
type stepKey struct {
	router topo.RouterID
	fc     int32
	dscp   int16
	stack  stackID
}

type igpKey struct {
	router topo.RouterID
	dest   topo.RouterID
}

// igpVec is the paper's V^IGP_nip: per outgoing link (sorted by link), the
// ratio of traffic forwarded on it when resolving dest over the IGP, plus the
// total ratio (1 where some route is selected, 0 where dest is
// IGP-unreachable).
type igpVec struct {
	perLink []linkFrac
	total   *mtbdd.Node
}

type linkFrac struct {
	link topo.DirLinkID
	frac *mtbdd.Node
}
