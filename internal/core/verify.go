package core

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"
	"time"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Violation is one TLP violation: a failure scenario (within the budget)
// under which a bound does not hold, together with the offending value.
type Violation struct {
	// Kind is "link-load" or "delivered".
	Kind string
	// Link is the directed link for link-load violations.
	Link topo.DirLinkID
	// Prefix is the destination prefix for delivered violations.
	Prefix netip.Prefix
	// Value is the traffic load (Gbps) in the violating scenario.
	Value float64
	// Min and Max are the violated bounds.
	Min, Max float64
	// FailedLinks / FailedRouters describe the witness scenario.
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
}

// Describe renders the violation using topology names.
func (v *Violation) Describe(net *topo.Network) string {
	var sb strings.Builder
	switch v.Kind {
	case "link-load":
		fmt.Fprintf(&sb, "link %s carries %.6g Gbps (bounds [%.6g, %.6g])",
			net.DirLinkName(v.Link), v.Value, v.Min, v.Max)
	case "delivered":
		fmt.Fprintf(&sb, "delivered traffic to %s is %.6g Gbps (bounds [%.6g, %.6g])",
			v.Prefix, v.Value, v.Min, v.Max)
	}
	sb.WriteString(" when ")
	if len(v.FailedLinks) == 0 && len(v.FailedRouters) == 0 {
		sb.WriteString("no element fails")
		return sb.String()
	}
	var parts []string
	for _, l := range v.FailedLinks {
		parts = append(parts, "link "+net.LinkName(l))
	}
	for _, r := range v.FailedRouters {
		parts = append(parts, "router "+net.Router(r).Name)
	}
	sb.WriteString(strings.Join(parts, ", "))
	sb.WriteString(" fail")
	if len(parts) == 1 {
		sb.WriteString("s")
	}
	return sb.String()
}

// LinkCheckStat records per-check verification effort, the data behind
// the paper's Figures 13 and 14. Most entries describe a directed-link
// load check; delivered-bound checks are recorded too (Kind "delivered"),
// so benchmark figures cover both property kinds.
type LinkCheckStat struct {
	// Kind is "" for a link-load check (the common case) or "delivered"
	// for a delivered-traffic bound.
	Kind string
	Link topo.DirLinkID
	// Prefix is the destination prefix of a delivered-bound check.
	Prefix netip.Prefix
	// Flows is the number of executed flows (global-equivalence classes)
	// with nonzero traffic on the link (or, for delivered checks, with a
	// member flow destined inside the prefix).
	Flows int
	// Classes is the number of link-local equivalence classes among them
	// (equals Flows when the reduction is disabled).
	Classes int
	// Elapsed is the time spent aggregating and checking.
	Elapsed time.Duration
}

// Report is the outcome of a verification run.
type Report struct {
	Violations []Violation
	// Holds is true when no bound was violated in any scenario within
	// the failure budget.
	Holds bool
	// LinkStats has one entry per checked directed link.
	LinkStats []LinkCheckStat
	// FlowsExecuted is the number of symbolic executions performed
	// (after global equivalence merging).
	FlowsExecuted int
	// FlowsTotal is the number of input flows.
	FlowsTotal int
	// Incomplete is set when the run was cut short (cancellation,
	// deadline, budget breach). Holds is never true on an incomplete report.
	Incomplete bool
	// Unchecked lists the directed links whose load checks did not run
	// to completion; their verdicts are unknown.
	Unchecked []topo.DirLinkID
	// UncheckedDelivered lists delivered-bound prefixes whose checks did
	// not complete.
	UncheckedDelivered []netip.Prefix
	// DegradedFlows is always empty; benchmark/ still reads it.
	DegradedFlows []string

	// uncheckedLinks / uncheckedPfx deduplicate the Unchecked and
	// UncheckedDelivered lists without rescanning them per mark.
	uncheckedLinks map[topo.DirLinkID]struct{}
	uncheckedPfx   map[netip.Prefix]struct{}
}

// markUnchecked records a directed link as unchecked (deduplicated via a
// set so repeated marks stay O(1), preserving first-marked order) and
// flags the report incomplete.
func (rep *Report) markUnchecked(l topo.DirLinkID) {
	rep.Incomplete = true
	if rep.uncheckedLinks == nil {
		rep.uncheckedLinks = make(map[topo.DirLinkID]struct{}, len(rep.Unchecked)+1)
		for _, u := range rep.Unchecked {
			rep.uncheckedLinks[u] = struct{}{}
		}
	}
	if _, dup := rep.uncheckedLinks[l]; dup {
		return
	}
	rep.uncheckedLinks[l] = struct{}{}
	rep.Unchecked = append(rep.Unchecked, l)
}

// markUncheckedDelivered records a delivered-bound prefix as unchecked,
// deduplicated the same way.
func (rep *Report) markUncheckedDelivered(pfx netip.Prefix) {
	rep.Incomplete = true
	if rep.uncheckedPfx == nil {
		rep.uncheckedPfx = make(map[netip.Prefix]struct{}, len(rep.UncheckedDelivered)+1)
		for _, u := range rep.UncheckedDelivered {
			rep.uncheckedPfx[u] = struct{}{}
		}
	}
	if _, dup := rep.uncheckedPfx[pfx]; dup {
		return
	}
	rep.uncheckedPfx[pfx] = struct{}{}
	rep.UncheckedDelivered = append(rep.UncheckedDelivered, pfx)
}

// markUncheckedSubject records a lowered plan's target as unchecked.
func (rep *Report) markUncheckedSubject(s Subject) {
	if s.Prefix.IsValid() {
		rep.markUncheckedDelivered(s.Prefix)
	} else {
		rep.markUnchecked(s.Link)
	}
}

// AllUnchecked is the report of a run that was cut short before any check
// could start: every target Run would check for the same request is
// listed unchecked, in Run's order.
func AllUnchecked(net *topo.Network, bounds []topo.LoadBound, delivered []topo.DeliveredBound, overloadFactor float64) *Report {
	rep := &Report{Incomplete: true}
	for _, p := range lower(net, bounds, delivered, overloadFactor) {
		rep.markUncheckedSubject(p.Subject)
	}
	return rep
}

// Verifier aggregates per-flow STFs into per-link symbolic traffic loads
// and checks TLPs (paper §4.5, Theorem 5.1).
type Verifier struct {
	e     *Engine
	flows []topo.Flow
	stfs  []*FlowSTF
	// execCount is the number of classes with a finished STF (executed,
	// cache-served or unsealed; post global-equiv).
	execCount int
	// err is the first fatal error hit while executing flows (cancel,
	// deadline, unrecoverable budget breach, contained panic). Run
	// surfaces it with a partial report.
	err error
	// aggT accumulates the wall time of per-link aggregation: the n-ary
	// kernel calls of the check stage. Its obs name is "check/kreduce" — the
	// reduction is fused into the aggregation it times, and
	// benchmark/batch.go reads the timer under that name.
	aggT *obs.Timer
	// checkC counts what the check stage did with each link (checkCounters).
	checkC checkCounters
	// classes are the global-equivalence classes in execution order
	// (v.stfs is parallel to it); the summed volume on each
	// representative fans the shared STF back out to the members.
	classes []flowClass
	// classOf[i] is flows[i]'s class: a delivered subject whose prefix
	// splits a class takes only its member flows' volume through it.
	classOf []int
	// linkIdx lists, per directed link, the STFs crossing it in STF order
	// with their node on that link (indexLinks). Built once at the end of
	// assemble and read-only afterwards; its nodes are the ones v.stfs roots.
	linkIdx [][]linkRef
	// sched summarizes the execution phase's scheduling (see SchedStats).
	sched SchedStats
	// classKeys, parallel to stfs, are the classes' keys for carried checks
	// and loads: the cache's identity of the class and its summed volume. nil
	// unless the STF cache is a CheckCarrier that saw every class.
	classKeys []routesim.Fingerprint
	// linkKeys are the directed links' load keys (loadKey), computed on first
	// use; loads is the run's load carrier (CheckCarrier.Loads), and session
	// the running Check's use of it.
	linkKeys []routesim.Fingerprint
	loads    LoadCarrier
	session  *loadSession
	// group and delivered are the check stage's scratch: the class grouper
	// every load groups through, and the last delivered prefix's volumes.
	group     classGrouper
	delivered deliveredMemo
}

// Err returns the fatal error recorded during flow execution, if any.
func (v *Verifier) Err() error { return v.err }

// newVerifier is the base every constructor starts from: the flows
// classified into global-equivalence classes (§6) with nothing executed
// yet. The constructors differ only in how they fill v.stfs.
func newVerifier(e *Engine, flows []topo.Flow) *Verifier {
	v := &Verifier{e: e, flows: flows,
		aggT: e.opts.Obs.Timer("check/kreduce"), checkC: newCheckCounters(e.opts.Obs)}
	v.classes, v.classOf = classifyFlows(e, flows)
	v.sched = SchedStats{Workers: 1, Chunks: min(1, len(v.classes)), Classes: len(v.classes), DedupHits: dedupHits(v.classes)}
	e.opts.Obs.Counter("sched.class_dedup_hits").Add(int64(v.sched.DedupHits))
	return v
}

// NewVerifier executes all flows symbolically on the engine's manager
// (applying global flow equivalence unless disabled, consulting
// Options.STFCache when set) and returns a Verifier ready to check
// properties. Execution is governed: a cancellation or an unrecoverable
// budget breach stops the loop and is surfaced from Run (or Err) with
// the flows executed so far intact.
func NewVerifier(e *Engine, flows []topo.Flow) *Verifier {
	v := newVerifier(e, flows)
	v.assemble(nil, nil)
	return v
}

// NewParallelVerifier is NewVerifier: every run executes and checks on the
// engine's manager (DESIGN.md §8), and workers is accepted and ignored.
// benchmark/ pins the signature.
func NewParallelVerifier(e *Engine, flows []topo.Flow, workers int) *Verifier {
	return NewVerifier(e, flows)
}

// assemble fills v.stfs in class order. sealed[j] holds the STFs of the
// classes at[j] lists, finished in a compose domain's manager, and each list
// is unsealed into the engine's manager as one governed step, its replay
// table gone with the step. The loop that follows executes every class still
// without an STF here, in class order, after offering it to the STF cache.
// The first fatal error stops assembly with the leading classes finished so
// far intact.
func (v *Verifier) assemble(sealed []*SealedSTFs, at [][]int) {
	e := v.e
	cache := e.opts.STFCache
	carrier, _ := cache.(CheckCarrier)
	var keys []routesim.Fingerprint
	if len(sealed) > 0 {
		carrier = nil // an unsealed class has no key
	} else if carrier != nil {
		keys = make([]routesim.Fingerprint, 0, len(v.classes))
	}
	stfs := make([]*FlowSTF, len(v.classes))
	for j, l := range sealed {
		if l == nil {
			continue // a domain with no class
		}
		reps := make([]topo.Flow, len(at[j]))
		for k, ci := range at[j] {
			reps[k] = v.classes[ci].rep
		}
		var got []*FlowSTF
		err := e.ladder(stfs, func() {
			got = l.Unseal(e.m, reps)
			e.maybeGC(stfs, stfRoots(nil, got))
		})
		if err != nil {
			v.err = err
			break
		}
		for k, ci := range at[j] {
			stfs[ci] = got[k]
			e.count.imported.Inc()
			e.count.class(got[k])
		}
	}
	n := 0
	for ; n < len(stfs) && v.err == nil; n++ {
		if stfs[n] != nil {
			continue
		}
		rep := v.classes[n].rep
		var s *FlowSTF
		var err error
		hit := false
		if cache != nil {
			// A hit is indistinguishable from an execution: the cache
			// materialized canonical nodes in this manager and the class
			// counts as executed (FlowsExecuted is part of the report
			// byte-identity contract).
			s, hit = cache.Lookup(e, rep)
		}
		if !hit {
			s, err = e.ExecuteGoverned(rep, stfs)
			if err != nil {
				v.err = err
				break
			}
			if cache != nil {
				cache.Store(e, rep, s)
			}
			e.count.class(s)
		}
		if carrier != nil {
			k := carrier.ClassKey(e, rep)
			k.U64(math.Float64bits(rep.Gbps))
			keys = append(keys, k)
		}
		stfs[n] = s
	}
	v.stfs = stfs[:n]
	if carrier != nil {
		v.classKeys, v.loads = keys, carrier.Loads()
	}
	v.execCount = n
	v.linkIdx = indexLinks(v.stfs, 2*e.net.NumLinks())
}

// linkRef is one entry of the per-link class index: an STF (by its index in
// v.stfs) and its node on the link.
type linkRef struct {
	stf int32
	w   *mtbdd.Node
}

// indexLinks lists, per directed link, the STFs crossing it with their node
// there. The outer loop runs in STF order and an STF has at most one node per
// link, so each link's list is in STF order whatever order the Links maps
// iterate in — the first-seen class order, and with it every float of the
// load, is the one a scan over stfs gives.
func indexLinks(stfs []*FlowSTF, dirLinks int) [][]linkRef {
	idx := make([][]linkRef, dirLinks)
	counts := make([]int, dirLinks)
	total := 0
	for _, s := range stfs {
		for l := range s.Links {
			counts[l]++
		}
		total += len(s.Links)
	}
	// One backing array, carved into per-link lists of exact capacity.
	refs := make([]linkRef, total)
	for l, n := range counts {
		idx[l], refs = refs[:0:n], refs[n:]
	}
	for si, s := range stfs {
		for l, w := range s.Links {
			idx[l] = append(idx[l], linkRef{stf: int32(si), w: w})
		}
	}
	return idx
}

// FlowSTFs exposes the executed (merged) flow results.
func (v *Verifier) FlowSTFs() []*FlowSTF { return v.stfs }

// Vars exposes the run's failure-variable layout (to resolve property
// guards to variables).
func (v *Verifier) Vars() *routesim.FailVars { return v.e.fv }

// LinkLoad computes the symbolic traffic load τ_l of a directed link by
// aggregating all flows, using link-local equivalence classes unless
// disabled: flows whose STFs are the same MTBDD node (hash-consing makes
// this a pointer comparison) are summed as volumes first, so the operands
// of the one n-ary walk that builds the load are the classes, not the flows.
//
// The returned node remains valid until the next Verifier method that may
// trigger a managed GC (another LinkLoad, a Check or a Run).
func (v *Verifier) LinkLoad(l topo.DirLinkID) (*mtbdd.Node, LinkCheckStat) {
	v.e.maybeGC(v.stfs, nil)
	return v.load(Subject{Link: l})
}

// loadEpsilon absorbs floating-point noise from ECMP fraction arithmetic
// when comparing loads against bounds.
const loadEpsilon = 1e-6

// scenarioWitness converts a violating assignment into sorted failed
// link/router lists.
func scenarioWitness(fv *routesim.FailVars, a mtbdd.Assignment) (links []topo.LinkID, routers []topo.RouterID) {
	for _, fvar := range a.FailedVars() {
		if l, r, isLink := fv.VarElement(fvar); isLink {
			links = append(links, l)
		} else {
			routers = append(routers, r)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	return links, routers
}

// lower flattens a check request into its ordered plans, one single-check
// plan per target: explicit bounds (undirected ones in both directions),
// delivered bounds, then the all-links overload property — "no directed link
// carries more than factor × capacity", the paper's daily P2 check. This
// order is the order of Report.LinkStats and Report.Violations on every path.
// The overload plans are the only ones that take the §6 early-termination
// scan: a check that must build and scan every load names explicit bounds.
func lower(net *topo.Network, bounds []topo.LoadBound, delivered []topo.DeliveredBound, overloadFactor float64) []Plan {
	var plans []Plan
	bothDirs := []topo.Direction{topo.AtoB, topo.BtoA}
	for _, b := range bounds {
		dirs := bothDirs
		if b.DirSpecified {
			dirs = []topo.Direction{b.Dir}
		}
		for _, d := range dirs {
			plans = append(plans, Plan{
				Subject: Subject{Link: topo.MakeDirLinkID(b.Link, d)},
				Checks:  []LinkCheck{{Min: b.Min, Max: b.Max, CondVar: -1}},
			})
		}
	}
	for _, b := range delivered {
		plans = append(plans, Plan{
			Subject: Subject{Prefix: b.Prefix},
			Checks:  []LinkCheck{{Min: b.Min, Max: b.Max, CondVar: -1}},
		})
	}
	if overloadFactor > 0 {
		for li := 0; li < net.NumLinks(); li++ {
			link := net.Link(topo.LinkID(li))
			for _, d := range bothDirs {
				plans = append(plans, Plan{
					Subject: Subject{Link: topo.MakeDirLinkID(link.ID, d)},
					Checks:  []LinkCheck{{Max: link.Capacity * overloadFactor, Overload: true, CondVar: -1}},
					pruned:  true,
				})
			}
		}
	}
	return plans
}

// violations converts a lowered plan's scan hit into its report entry.
func violations(p Plan, r ScanResult) []Violation {
	if !r.Violated {
		return nil
	}
	v := Violation{
		Kind: "link-load", Link: p.Subject.Link, Value: r.Value, Min: p.Checks[0].Min, Max: p.Checks[0].Max,
		FailedLinks: r.FailedLinks, FailedRouters: r.FailedRouters,
	}
	if p.Subject.Prefix.IsValid() {
		v.Kind, v.Prefix = "delivered", p.Subject.Prefix
	}
	return []Violation{v}
}

// Run checks the given explicit bounds (either slice may be empty) and, if
// overloadFactor > 0, the all-links overload property: the request lowered to
// plans, Check, and the slots converted back in plan order.
//
// Run is governed: on cancellation, deadline expiry, or a node-budget
// breach it returns the typed error together with a partial report —
// completed checks keep their verdicts and stats, and every target that did
// not complete is listed in Unchecked / UncheckedDelivered with Incomplete
// set. A failed flow execution leaves every target unchecked. Holds is never
// true on an incomplete report.
func (v *Verifier) Run(bounds []topo.LoadBound, delivered []topo.DeliveredBound, overloadFactor float64) (*Report, error) {
	rep := &Report{FlowsExecuted: v.execCount, FlowsTotal: len(v.flows)}
	plans := lower(v.e.net, bounds, delivered, overloadFactor)
	results, err := v.Check(plans)
	for i, r := range results {
		if !r.Done {
			rep.markUncheckedSubject(plans[i].Subject)
			continue
		}
		rep.LinkStats = append(rep.LinkStats, r.Stat)
		rep.Violations = append(rep.Violations, violations(plans[i], r.Results[0])...)
	}
	rep.Holds = len(rep.Violations) == 0 && !rep.Incomplete
	return rep, err
}
