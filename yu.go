// Package yu is a verification system for checking traffic load properties
// (TLPs) of BGP/IS-IS/SR networks under arbitrary k-failure scenarios — a
// from-scratch reproduction of "A General and Efficient Approach to
// Verifying Traffic Load Properties under Arbitrary k Failures"
// (SIGCOMM 2024).
//
// Given a network (topology + router configurations), a set of input
// flows, and a failure budget k, YU answers: in every scenario with at
// most k failed links/routers, does every link's traffic load stay within
// its bounds, and is traffic still delivered? When the answer is no, YU
// produces a concrete witness failure scenario.
//
// The pipeline is: symbolic route simulation (guarded RIBs and SR
// policies), symbolic traffic execution over MTBDDs with k-failure
// equivalence reduction (KREDUCE), and terminal-scan verification with
// link-local flow-equivalence aggregation. Two baselines are bundled: a
// Jingubang-style concrete enumerator and a QARC-style shortest-path
// searcher.
//
// Quick start:
//
//	net, err := yu.LoadFile("network.yu")
//	rep, err := net.Verify(yu.VerifyOptions{K: 2, OverloadFactor: 0.95})
//	for _, v := range rep.Violations {
//	    fmt.Println(v.Describe(net.Topology()))
//	}
package yu

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/spath"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// Re-exported domain types. The aliases give the public API stable names
// for the model types used in options and reports.
type (
	// FailureMode selects which element class may fail.
	FailureMode = topo.FailureMode
	// Flow is one input traffic flow.
	Flow = topo.Flow
	// LoadBound is a per-link traffic load property.
	LoadBound = topo.LoadBound
	// DeliveredBound is a delivered-traffic property.
	DeliveredBound = topo.DeliveredBound
	// Violation is a TLP violation with its witness scenario.
	Violation = core.Violation
	// LinkCheckStat records per-link verification effort.
	LinkCheckStat = core.LinkCheckStat
	// Spec is the parsed network specification.
	Spec = config.Spec
	// DirLinkID identifies a directed link (used in partial reports).
	DirLinkID = topo.DirLinkID
	// SchedStats summarizes the execution phase's work units (classes and
	// global-equivalence dedup hits) — see Report.Sched.
	SchedStats = core.SchedStats
	// Metrics is the run-metrics registry for VerifyOptions.Obs: phase
	// timings, per-cache MTBDD hit/miss counters, stage counters
	// (DESIGN.md §11). Create with NewMetrics; read with Snapshot.
	Metrics = obs.Registry
	// MetricsSnapshot is the serializable view of a Metrics registry —
	// the payload behind `yu -metrics=json`.
	MetricsSnapshot = obs.Snapshot
	// STFCache is the cross-run symbolic-execution cache hook consulted
	// by the build (VerifyOptions.STFCache). Implementations
	// must honor the contract documented on core.STFCache; the incremental
	// daemon (internal/serve) is the canonical one.
	STFCache = core.STFCache
	// ExecEngine is the symbolic execution engine handed to STFCache
	// callbacks (core.Engine; "Exec" avoids clashing with the Engine
	// selector constant type).
	ExecEngine = core.Engine
	// FlowSTF is one flow's symbolic traffic fractions — the value an
	// STFCache stores and serves.
	FlowSTF = core.FlowSTF
	// TLProp is one property of a portfolio evaluated by VerifyPortfolio:
	// a link load, utilization, delivered-traffic, or delivery-ratio
	// bound, optionally conditional on a link failure.
	TLProp = topo.TLProp
	// TLPResult is a portfolio evaluation outcome: per-property verdicts
	// plus violations grouped by witness failure set and ranked by excess.
	TLPResult = tlp.Result
	// Portfolio is a compiled portfolio, ready for Built.EvalPortfolio.
	Portfolio = tlp.Portfolio
	// ModularStats summarizes a compositional (domain-decomposed) run:
	// domain and border-link counts, lockstep BGP rounds, and how many
	// equivalence classes were verified inside a domain vs. falling back
	// to monolithic execution — see Report.Modular.
	ModularStats = compose.Stats
	// ErrNotConverged is the error Verify and VerifyPortfolio return
	// (match with errors.As on a *ErrNotConverged) when BGP route
	// propagation was still moving at its round budget — a policy dispute.
	// No report accompanies it: there is no stable routing state to
	// verify.
	ErrNotConverged = routesim.ErrNotConverged
)

// NewMetrics returns an empty metrics registry to attach to a run via
// VerifyOptions.Obs. Metrics collection is off (and free) when the
// field is nil.
func NewMetrics() *Metrics { return obs.New() }

// Failure modes.
const (
	FailLinks   = topo.FailLinks
	FailRouters = topo.FailRouters
	FailBoth    = topo.FailBoth
)

// BudgetPolicy selects how Verify answers a MaxNodes breach that a managed
// GC and a retry did not relieve (VerifyOptions.OnBudget).
type BudgetPolicy int

const (
	// BudgetFail (the default) returns the breach as ErrNodeBudget with a
	// partial report.
	BudgetFail BudgetPolicy = iota
	// BudgetDegrade answers the breach — in route simulation, execution or
	// a check — with EngineEnumerate's verdict on the whole run, every flow
	// named in Report.DegradedFlows: a complete verdict whatever the budget,
	// with the MTBDD manager held to MaxNodes. Verify only: VerifyPortfolio
	// rejects it.
	BudgetDegrade
)

// Typed governance errors. Verify returns these (match with errors.Is)
// together with a partial Report when a run is cut short.
var (
	// ErrCanceled reports a canceled context.
	ErrCanceled = govern.ErrCanceled
	// ErrDeadline reports an expired context deadline.
	ErrDeadline = govern.ErrDeadline
	// ErrNodeBudget reports an unrelieved MTBDD node-budget breach.
	ErrNodeBudget = govern.ErrNodeBudget
)

// Network is a loaded network specification ready for verification.
type Network struct {
	spec *config.Spec
}

// Load parses a network specification (see internal/config.ParseSpec for
// the format) from r.
func Load(r io.Reader) (*Network, error) {
	spec, err := config.ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return &Network{spec: spec}, nil
}

// LoadFile parses a network specification file.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// LoadString parses a network specification from a string.
func LoadString(s string) (*Network, error) {
	spec, err := config.ParseSpecString(s)
	if err != nil {
		return nil, err
	}
	return &Network{spec: spec}, nil
}

// FromSpec wraps an already-built specification (e.g. from the generators).
func FromSpec(spec *config.Spec) *Network { return &Network{spec: spec} }

// Spec exposes the underlying parsed specification.
func (n *Network) Spec() *config.Spec { return n.spec }

// Topology exposes the network topology.
func (n *Network) Topology() *topo.Network { return n.spec.Net }

// Engine selects the verification engine.
type Engine int

const (
	// EngineYU is the symbolic traffic execution engine (the paper's
	// contribution): one symbolic run covers all scenarios.
	EngineYU Engine = iota
	// EngineEnumerate is the Jingubang-style baseline: concrete
	// simulation of every C(n, <=k) scenario.
	EngineEnumerate
	// EngineShortestPath is the QARC-style baseline: shortest-path-only
	// model with failure-set search. Check spath.Faithful before
	// trusting its verdicts on feature-rich networks.
	EngineShortestPath
)

// VerifyOptions configures a verification run. The zero value verifies
// the spec's own properties under the spec's failure budget with the YU
// engine.
type VerifyOptions struct {
	// K overrides the spec's failure budget when > 0 (0 keeps the spec's).
	K int
	// Mode overrides the spec's failure mode when set.
	Mode FailureMode
	// ModeSet makes Mode take effect.
	ModeSet bool
	// OverloadFactor, when > 0, additionally checks that every directed
	// link carries at most factor × capacity.
	OverloadFactor float64
	// Flows overrides the spec's flows when non-nil.
	Flows []Flow
	// Engine selects YU or a baseline.
	Engine Engine
	// DisableKReduce turns off the k-failure MTBDD reduction (the
	// "YU w/o MTBDD reduction" ablation; EngineYU only).
	DisableKReduce bool
	// DisableLinkLocalEquiv and DisableGlobalEquiv turn off the flow
	// equivalence optimizations (EngineYU only).
	DisableLinkLocalEquiv bool
	DisableGlobalEquiv    bool
	// Incremental enables incremental re-simulation (EngineEnumerate).
	Incremental bool
	// Workers is accepted and ignored: every run executes its flows and
	// checks its properties on one MTBDD manager (DESIGN.md §8).
	Workers int
	// Ctx, when non-nil, makes the run cancellable: cancellation or an
	// expired deadline aborts within milliseconds and Verify returns
	// ErrCanceled / ErrDeadline with a partial Report.
	Ctx context.Context
	// MaxNodes, when > 0, bounds the live MTBDD nodes of every manager
	// the run creates (EngineYU only). A breach first triggers a managed
	// GC and a retry; an unrelieved breach is answered per OnBudget.
	MaxNodes int
	// OnBudget selects Verify's answer to an unrelieved MaxNodes breach:
	// BudgetFail (default) or BudgetDegrade.
	OnBudget BudgetPolicy
	// Obs, when non-nil, collects run metrics — phase durations,
	// per-manager MTBDD cache stats, stage counters — into the
	// registry (read them with Obs.Snapshot() after Verify returns,
	// including on partial/incomplete runs). nil disables collection
	// with zero overhead.
	Obs *Metrics
	// STFCache, when non-nil, lets the run reuse symbolic execution
	// results from previous runs (EngineYU only): each
	// equivalence class is offered to the cache before execution and
	// stored after. Soundness is the cache's responsibility — see the
	// core.STFCache contract. Reports remain byte-identical to uncached
	// runs when the cache honors it. A cache that also implements
	// routesim.Carrier carries IS-IS results between the monolithic builds
	// of one topology, and BGP results prefix by prefix.
	STFCache STFCache
	// Domains, when non-nil, turns on compositional verification
	// (EngineYU only; Verify and VerifyPortfolio alike): the named router
	// partition — which must be
	// AS-closed — is route-simulated and symbolically executed one domain
	// at a time against interface summaries, breaking the monolithic
	// MTBDD scaling wall. The spec's own `domain` lines are available as
	// Spec().Domains. Flows beyond a summary's precision limit fall back
	// to whole-network execution; reports stay byte-identical to
	// monolithic runs. An invalid partition is a hard error.
	Domains map[string][]string
	// AutoDomains, when > 0 and Domains is nil, partitions the network
	// automatically into up to that many AS-closed domains.
	AutoDomains int
}

// Report is the outcome of a verification run.
type Report struct {
	Violations []Violation
	Holds      bool
	// Engine-specific statistics.
	Elapsed       time.Duration
	RouteSimTime  time.Duration
	FlowsTotal    int
	FlowsExecuted int
	// Scenarios is the number of concrete scenarios simulated
	// (baselines only; EngineYU covers all scenarios in one run).
	Scenarios int
	// MTBDDNodes is the number of live MTBDD nodes after verification
	// (EngineYU only, the Fig 16 metric).
	MTBDDNodes int
	// LinkStats has one entry per checked directed link (EngineYU only).
	LinkStats []LinkCheckStat
	// Incomplete is set when the run was cut short (cancellation,
	// deadline, node budget). Holds is never true on an incomplete report.
	Incomplete bool
	// Unchecked lists directed links whose load checks did not complete;
	// their verdicts are unknown.
	Unchecked []DirLinkID
	// UncheckedDelivered lists delivered-bound prefixes whose checks did
	// not complete.
	UncheckedDelivered []netip.Prefix
	// DegradedFlows names every flow when a BudgetDegrade run answered a
	// node-budget breach by concrete enumeration, and is empty otherwise.
	DegradedFlows []string
	// Sched summarizes the execution phase's work units (EngineYU only):
	// equivalence classes and global-equivalence dedup hits.
	Sched SchedStats
	// Modular summarizes the compositional pipeline when the run was
	// domain-decomposed (VerifyOptions.Domains / AutoDomains); nil on
	// monolithic runs and when composition fell back wholesale.
	Modular *ModularStats
}

// resolved is the outcome of the resolve stage: what the run verifies,
// after the options' overrides of the spec.
type resolved struct {
	k     int
	mode  FailureMode
	flows []Flow
	// budget is the KREDUCE budget symbolic execution runs under: k, or
	// -1 (no reduction) under DisableKReduce, whose deferred check-time
	// reduction checkK then carries the real k.
	budget, checkK int
}

// resolve is the pipeline's first stage: the options' overrides applied
// to the spec's failure budget, failure mode and flows.
func (n *Network) resolve(opts VerifyOptions) resolved {
	r := resolved{k: n.spec.K, mode: n.spec.Mode, flows: n.spec.Flows}
	if opts.K > 0 {
		r.k = opts.K
	}
	if opts.ModeSet {
		r.mode = opts.Mode
	}
	if opts.Flows != nil {
		r.flows = opts.Flows
	}
	r.budget = r.k
	if opts.DisableKReduce {
		r.budget, r.checkK = -1, r.k
	}
	return r
}

// Verify runs k-failure TLP verification. With the YU engine the run is a
// staged pipeline — resolve → build (monolithic or compositional) → check
// the spec's properties → report: Build, then one Built.Verify. The baselines
// branch off after resolve.
func (n *Network) Verify(opts VerifyOptions) (*Report, error) {
	switch opts.Engine {
	case EngineYU:
	case EngineEnumerate:
		return n.verifyEnumerate(n.resolve(opts), opts, time.Now())
	case EngineShortestPath:
		return n.verifyShortestPath(n.resolve(opts), opts, time.Now())
	default:
		return nil, fmt.Errorf("yu: unknown engine %d", opts.Engine)
	}
	b, err := n.Build(opts)
	if b == nil {
		return nil, err
	}
	return b.Verify(opts.Ctx)
}

// Verify checks the spec's properties (and the build options' overload
// factor) on the built state, under ctx (nil: ungoverned) — the check stage
// of Network.Verify, which any number of further checks may follow. Elapsed
// in the report is the build's time plus this check's.
//
// A governed abort — of this check, or the one that cut the build short —
// returns the typed error with a partial report, as Network.Verify does.
func (b *Built) Verify(ctx context.Context) (*Report, error) {
	n, r, opts := b.n, b.r, b.opts
	opts.Ctx = ctx
	start := time.Now().Add(-b.buildTime)
	defer b.record()
	// rep stays nil when the build was cut short before any check could
	// run: the report then lists every requested target as unchecked.
	var rep *core.Report
	err := b.err
	if err == nil {
		b.ver.SetContext(ctx)
		checkSpan := opts.Obs.Span("check")
		rep, err = b.ver.Run(n.spec.Props, n.spec.Delivered, opts.OverloadFactor)
		checkSpan.End()
		b.ver.Collect(false)
	}
	if opts.OnBudget == BudgetDegrade && errors.Is(err, ErrNodeBudget) {
		// The last rung of the degradation ladder (DESIGN.md §10): the
		// budget could not hold route simulation, execution or a check, so
		// the whole run falls back to concrete enumeration and the degrade
		// policy still renders a complete verdict. Every flow is degraded.
		out, derr := n.verifyEnumerate(r, opts, start)
		if out != nil {
			for _, f := range r.flows {
				out.DegradedFlows = append(out.DegradedFlows, f.String())
			}
			out.RouteSimTime = b.routeTime
		}
		return out, derr
	}
	if rep == nil {
		out := &Report{Elapsed: time.Since(start), RouteSimTime: b.routeTime, FlowsTotal: len(r.flows), MTBDDNodes: b.LiveNodes()}
		n.markAllUnchecked(out, opts.OverloadFactor)
		return out, err
	}
	return &Report{
		Violations:         rep.Violations,
		Holds:              rep.Holds,
		Elapsed:            time.Since(start),
		RouteSimTime:       b.routeTime,
		FlowsTotal:         rep.FlowsTotal,
		FlowsExecuted:      rep.FlowsExecuted,
		MTBDDNodes:         b.LiveNodes(),
		LinkStats:          rep.LinkStats,
		Incomplete:         rep.Incomplete,
		Unchecked:          rep.Unchecked,
		UncheckedDelivered: rep.UncheckedDelivered,
		Sched:              b.ver.SchedStats(),
		Modular:            b.modular,
	}, err
}

// verifyShortestPath runs the QARC-style shortest-path baseline.
func (n *Network) verifyShortestPath(r resolved, opts VerifyOptions, start time.Time) (*Report, error) {
	if r.mode != topo.FailLinks {
		return nil, fmt.Errorf("yu: the shortest-path baseline supports link failures only")
	}
	model := spath.NewModel(n.spec.Net, n.spec.Configs, r.flows)
	factor := opts.OverloadFactor
	if factor <= 0 {
		factor = 1
	}
	rep := model.Verify(r.k, spath.Options{OverloadFactor: factor, Ctx: opts.Ctx})
	out := &Report{
		Holds:      rep.Holds,
		Elapsed:    time.Since(start),
		FlowsTotal: len(r.flows),
		Scenarios:  rep.Scenarios,
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, Violation{
			Kind: "link-load", Link: v.Link, Value: v.Value, Max: v.Limit,
			FailedLinks: v.FailedLinks,
		})
	}
	if rep.Err != nil {
		n.markAllUnchecked(out, factor)
	}
	return out, rep.Err
}

// verifyEnumerate runs the Jingubang-style concrete baseline. It is both
// the EngineEnumerate entry point and the last rung of the degradation
// ladder (BudgetDegrade's answer to a node-budget breach).
func (n *Network) verifyEnumerate(r resolved, opts VerifyOptions, start time.Time) (*Report, error) {
	sp := opts.Obs.Span("enumerate")
	defer sp.End()
	sim := concrete.NewSim(n.spec.Net, n.spec.Configs)
	rep := sim.VerifyKFailures(r.flows, r.k, r.mode, concrete.EnumOptions{
		OverloadFactor: opts.OverloadFactor,
		Bounds:         n.spec.Props,
		Delivered:      n.spec.Delivered,
		Incremental:    opts.Incremental,
		Ctx:            opts.Ctx,
	})
	out := &Report{
		Holds:      rep.Holds,
		Elapsed:    time.Since(start),
		FlowsTotal: len(r.flows),
		Scenarios:  rep.Scenarios,
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, Violation{
			Kind: v.Kind, Link: v.Link, Prefix: v.Prefix, Value: v.Value,
			Min: v.Min, Max: v.Max,
			FailedLinks: v.FailedLinks, FailedRouters: v.FailedRouters,
		})
	}
	if rep.Err != nil {
		n.markAllUnchecked(out, opts.OverloadFactor)
	}
	return out, rep.Err
}

// markAllUnchecked records every requested check target as unchecked on
// a report whose checks could not run (or cannot be trusted to have
// covered every scenario).
func (n *Network) markAllUnchecked(out *Report, overloadFactor float64) {
	u := core.AllUnchecked(n.spec.Net, n.spec.Props, n.spec.Delivered, overloadFactor)
	out.Unchecked, out.UncheckedDelivered = u.Unchecked, u.UncheckedDelivered
	out.Incomplete = true
	out.Holds = false
}

// VerifyPortfolio evaluates a property portfolio with the batch TLP
// engine (EngineYU only): one symbolic execution serves every property,
// each directed link's load aggregated and terminal-scanned exactly once
// however many properties ride on it. It runs Verify's pipeline with a
// different check stage — Build, then one Built.VerifyPortfolio — so options
// are honored as in Verify: K/Mode/Flows overrides, governance, Obs,
// STFCache, and Domains/AutoDomains (compositional build, byte-identical
// result); the portfolio itself replaces the spec's legacy properties. The
// result is byte-stable across partitions (canon.FormatPortfolio).
//
// Like Verify, a governed abort returns the typed error together with a
// partial result whose undecided properties are StatusUnchecked; unlike
// Verify there is no concrete answer for portfolios, so BudgetDegrade is an
// error.
func (n *Network) VerifyPortfolio(props []TLProp, opts VerifyOptions) (*TLPResult, error) {
	// Both checked before the build: a rejected run costs no simulation.
	if opts.OnBudget == BudgetDegrade {
		return nil, errors.New("yu: VerifyPortfolio has no degrade budget policy (BudgetDegrade answers Verify only)")
	}
	port, err := tlp.Compile(n.spec.Net, n.resolve(opts).flows, props)
	if err != nil {
		return nil, err
	}
	b, err := n.Build(opts)
	if b == nil {
		return nil, err
	}
	return b.EvalPortfolio(opts.Ctx, port)
}

// VerifyPortfolio evaluates a property portfolio on the built state, under
// ctx (nil: ungoverned) — the check stage of Network.VerifyPortfolio, at the
// cost the paper gives a TLP (§4.5, §5.3): a per-link aggregation and a
// terminal scan over symbolic traffic fractions that already exist. A
// malformed portfolio is the error alone; a governed abort — of this check,
// or the one that cut the build short — the typed error with the undecided
// properties unchecked. An aborted check leaves the built state usable. A
// node-budget breach is answered as under BudgetFail, whatever the build's
// OnBudget: the degrade policy answers Verify only.
func (b *Built) VerifyPortfolio(ctx context.Context, props []TLProp) (*TLPResult, error) {
	port, err := tlp.Compile(b.n.spec.Net, b.r.flows, props)
	if err != nil {
		return nil, err
	}
	return b.EvalPortfolio(ctx, port)
}

// EvalPortfolio is VerifyPortfolio of a portfolio compiled already, by
// tlp.Compile against the built network and the flows the build ran — for a
// caller that compiles it before the build is there, to refuse a malformed
// one without waiting.
func (b *Built) EvalPortfolio(ctx context.Context, port *Portfolio) (*TLPResult, error) {
	defer b.record()
	err := b.err
	if err == nil {
		err = b.ver.Err()
	}
	if err != nil {
		return tlp.AllUnchecked(port.Props), err
	}
	b.ver.SetContext(ctx)
	res, err := port.Eval(b.ver, b.opts.Obs)
	b.ver.Collect(false)
	return res, err
}

// Built is the state a network is verified on — the outcome of the pipeline's
// resolve and build stages: every equivalence class's symbolic traffic
// fractions in one MTBDD manager. Any number of checks can run on it, the
// spec's properties (Verify) and portfolios (VerifyPortfolio) alike, each
// under its own context and none paying route simulation or symbolic
// execution again; Network.Verify and Network.VerifyPortfolio are the
// one-check case. Results are byte-identical to theirs.
//
// A Built is not safe for concurrent use — its manager is single-threaded —
// so callers serialize checks. It holds its manager for as long as it is
// reachable; Trim makes a long-lived one lean.
type Built struct {
	n    *Network
	r    resolved
	opts VerifyOptions
	// ver is nil when a governed abort — err — cut the build short before
	// execution could start; mgr too when no manager existed yet.
	ver *core.Verifier
	mgr *mtbdd.Manager
	err error
	// routeTime is the route-simulation wall time, or the whole
	// compositional build's; buildTime the whole build stage's.
	routeTime, buildTime time.Duration
	// modular is set when the verifier was assembled from domains.
	modular *ModularStats
}

// record snapshots the manager's stats into opts.Obs after a check; the
// registry keeps the latest under each name, so a build is one entry.
func (b *Built) record() { core.RecordManager(b.opts.Obs, "primary", b.mgr) }

// Trim releases what only the build needed — the execution engine's step
// caches and the route-simulation result — and makes the manager collect
// its garbage, the symbolic traffic fractions as roots, whenever live nodes
// pass four times what is left (at least 64 K). Call it once, before keeping
// a Built around for checks to come; results do not change.
func (b *Built) Trim() {
	b.opts.STFCache = nil // consulted by the build only; it may hold hashes of every guard
	if b.ver != nil {
		b.ver.Trim()
	}
}

// Collect garbage-collects the manager now, the symbolic traffic fractions
// as roots. Checks collect on their own once the manager has grown; this is
// for a caller that wants the memory back at a time of its choosing.
func (b *Built) Collect() {
	if b.ver != nil {
		b.ver.Collect(true)
	}
}

// LiveNodes is the manager's current live MTBDD node count (the Fig 16
// metric, Report.MTBDDNodes): what a kept Built costs.
func (b *Built) LiveNodes() int {
	if b.mgr == nil {
		return 0
	}
	return b.mgr.Stats().Live
}

// Build runs the pipeline up to the point where checks can start — resolve,
// then the build stage — and returns the state for any number of them
// (EngineYU only). The plan is compositional when the options name a
// partition — per-domain route simulation and execution assembled by
// internal/compose (DESIGN.md §17) — and monolithic otherwise: one route
// simulation, then execution on its manager. Input the composition cannot
// handle (incomposable configs, a budget the domains cannot hold) falls back
// wholesale to the monolithic plan, which reproduces the verdict or the
// error. opts.Ctx governs the build only; each check names its own.
//
// A governed abort returns the typed error together with a Built on which
// every check answers its all-unchecked partial result and that error; any
// other error returns a nil Built.
func (n *Network) Build(opts VerifyOptions) (*Built, error) {
	if opts.Engine != EngineYU {
		return nil, fmt.Errorf("yu: Build runs the YU engine only (engine %d)", opts.Engine)
	}
	start := time.Now()
	b := &Built{n: n, r: n.resolve(opts), opts: opts}
	if err := b.build(); err != nil {
		return nil, err
	}
	b.buildTime = time.Since(start)
	return b, b.err
}

// build is the pipeline's second stage. A governed abort is left in b.err
// with ver nil, for the checks to shape their partial results around; any
// other error is returned.
func (b *Built) build() error {
	n, r, opts := b.n, b.r, b.opts
	governed := func(err error) error {
		b.err = err
		return nil
	}
	if opts.Domains != nil || opts.AutoDomains > 0 {
		var part *topo.Partition
		var err error
		if opts.Domains != nil {
			part, err = topo.NewPartition(n.spec.Net, opts.Domains)
		} else {
			part, err = topo.AutoPartition(n.spec.Net, opts.AutoDomains)
		}
		if err != nil {
			return err // an invalid partition is a configuration error
		}
		composeStart := time.Now()
		c, err := compose.Build(n.spec.Net, n.spec.Configs, part, r.flows, compose.Options{
			K:                     r.budget,
			CheckK:                r.checkK,
			Mode:                  r.mode,
			MaxNodes:              opts.MaxNodes,
			Ctx:                   opts.Ctx,
			Obs:                   opts.Obs,
			DisableLinkLocalEquiv: opts.DisableLinkLocalEquiv,
			DisableGlobalEquiv:    opts.DisableGlobalEquiv,
		})
		b.routeTime = time.Since(composeStart)
		opts.Obs.AddPhase("compose", b.routeTime)
		if err == nil {
			stats := c.Stats // a copy: &c.Stats would pin c's managers to the Report
			recordRouteSim(opts.Obs, stats.RouteSim)
			b.ver, b.mgr, b.modular = c.Verifier, c.Engine.Manager(), &stats
			return nil
		}
		if errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) {
			return governed(err)
		}
		var notConverged *ErrNotConverged
		if errors.As(err, &notConverged) {
			return err // the monolithic rounds are the same rounds
		}
	}
	// Timed from here, not from the caller's start: after a compose
	// fallback the failed composition is already the "compose" phase.
	routeStart := time.Now()
	b.mgr = mtbdd.New()
	fv := routesim.NewFailVars(b.mgr, n.spec.Net, r.mode, r.budget)
	if opts.MaxNodes > 0 {
		b.mgr.SetNodeBudget(opts.MaxNodes)
	}
	// A cache that is also a route-state carrier (the daemon's) hands IS-IS
	// and BGP from one build to the next.
	carrier, _ := opts.STFCache.(routesim.Carrier)
	rs, err := routesim.RunContext(opts.Ctx, fv, n.spec.Configs, carrier)
	b.routeTime = time.Since(routeStart)
	opts.Obs.AddPhase("routesim", b.routeTime)
	if err != nil {
		if errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrNodeBudget) {
			return governed(err)
		}
		return err
	}
	recordRouteSim(opts.Obs, rs.Stats)
	eng := core.NewEngine(rs, core.Options{
		DisableLinkLocalEquiv: opts.DisableLinkLocalEquiv,
		DisableGlobalEquiv:    opts.DisableGlobalEquiv,
		CheckK:                r.checkK,
		Ctx:                   opts.Ctx,
		NodeBudget:            opts.MaxNodes,
		Obs:                   opts.Obs,
		STFCache:              opts.STFCache,
	})
	execSpan := opts.Obs.Span("execute")
	b.ver = core.NewVerifier(eng, r.flows)
	execSpan.End()
	return nil
}

// recordRouteSim breaks the route-simulation time down by stage and
// records its work counters, so a run can say why route simulation took
// what it took (on a compositional run: summed over the domains).
func recordRouteSim(reg *Metrics, st routesim.Stats) {
	if reg == nil {
		return
	}
	reg.AddPhase("routesim/igp", st.IGPTime)
	reg.AddPhase("routesim/bgp", st.BGPTime)
	reg.AddPhase("routesim/finish", st.FinishTime)
	for name, n := range map[string]int{
		"routesim.igp_levels":        st.IGPLevels,
		"routesim.igp_pruned":        st.IGPPruned,
		"routesim.bgp_rounds":        st.BGPRounds,
		"routesim.bgp_entries":       st.BGPEntries,
		"routesim.bgp_recomputed":    st.BGPRecomputed,
		"routesim.bgp_offers":        st.BGPOffers,
		"routesim.bgp_offers_cut":    st.BGPOffersCut,
		"routesim.templates_rebuilt": st.TemplatesRebuilt,
		"routesim.as_paths":          st.ASPaths,
	} {
		reg.Counter(name).Add(int64(n))
	}
}
