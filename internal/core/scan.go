// The one checker core every path scans through. The sequential verifier,
// the parallel shard checkers, and the portfolio engine (internal/tlp) all
// aggregate per-link loads and decide violations here, so epsilon handling
// and the early-termination heuristics cannot diverge between paths again.
package core

import (
	"errors"
	"math"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// violThreshold is the single definition of the overload decision boundary:
// a load is a violation of an upper limit exactly when it exceeds
// violThreshold(limit). The quick bound, the early-termination loop, and
// the final terminal scan of every check path compare against this value.
func violThreshold(limit float64) float64 { return limit - loadEpsilon }

// scanCtx binds the shared checker to one manager: the primary one
// (imp == nil, collections keep the engine caches and the STFs) or a
// check-pool shard's private manager (imp rebuilds primary nodes there,
// memoized; nothing survives a check, so collections keep nothing).
type scanCtx struct {
	v   *Verifier
	m   *mtbdd.Manager
	fv  *routesim.FailVars
	imp func(*mtbdd.Node) *mtbdd.Node
}

func (v *Verifier) primaryScan() scanCtx {
	return scanCtx{v: v, m: v.e.m, fv: v.e.fv}
}

// shardScan builds a check-pool shard: a private governed manager with the
// primary's variable order. Construction allocates the variable nodes, so
// callers run it contained.
func (v *Verifier) shardScan() scanCtx {
	m := mtbdd.New()
	installGovernance(m, v.e.opts)
	fv := routesim.NewFailVars(m, v.e.net, v.e.fv.Mode, v.e.fv.K)
	return scanCtx{v: v, m: m, fv: fv, imp: m.Import}
}

func (sc scanCtx) node(w *mtbdd.Node) *mtbdd.Node {
	if sc.imp != nil {
		return sc.imp(w)
	}
	return w
}

// shardGCThreshold is the live-node count that triggers a collection on a
// check-pool shard between checks.
const shardGCThreshold = 1 << 20

// maybeGC collects the context's manager between checks when it has grown
// past its threshold.
func (sc scanCtx) maybeGC() {
	if sc.imp == nil {
		sc.v.e.maybeGC(sc.v.stfs, nil)
	} else if sc.m.Stats().Live > shardGCThreshold {
		sc.m.GC(nil)
	}
}

// governed runs one check attempt through the budget ladder on the
// context's manager.
func (sc scanCtx) governed(attempt func()) (degrade bool, err error) {
	if sc.imp == nil {
		return sc.v.e.ladder(sc.v.stfs, attempt)
	}
	return ladder(sc.v.e.opts, sc.m, func() []*mtbdd.Node { return nil }, attempt)
}

// Subject names the symbolic quantity a scan evaluates: the load of one
// directed link (the zero-valued default), the delivered traffic of every
// flow destined inside Prefix (when valid), or — when Links is non-empty —
// the pointwise sum (total traffic crossing a cut) or, with Max, the
// pointwise maximum (the worst-loaded member) of a set of directed links.
type Subject struct {
	Link   topo.DirLinkID
	Prefix netip.Prefix
	Links  []topo.DirLinkID
	Max    bool
}

// scanClass is one link-local equivalence class of a load: an STF node (in
// this context's manager) and the summed volume riding on it.
type scanClass struct {
	w   *mtbdd.Node
	vol float64
	max float64
}

// classes groups the flows contributing to a load — pick returns a flow's
// STF node, nil when it does not contribute — into equivalence classes in
// first-seen order (float addition is not associative, so the
// deterministic order keeps verdicts reproducible). With group off every
// flow is its own class. Classes are keyed by the primary manager's
// canonical pointer even on shards — the import is injective on canonical
// nodes, so every context builds the same classes in the same order.
func (sc scanCtx) classes(pick func(*FlowSTF) *mtbdd.Node, group bool, stat *LinkCheckStat) []scanClass {
	var classes []scanClass
	idx := make(map[*mtbdd.Node]int)
	for _, s := range sc.v.stfs {
		w := pick(s)
		if w == nil {
			continue
		}
		stat.Flows++
		if group {
			if i, ok := idx[w]; ok {
				classes[i].vol += s.Flow.Gbps
				continue
			}
			idx[w] = len(classes)
		}
		classes = append(classes, scanClass{w: sc.node(w), vol: s.Flow.Gbps})
	}
	stat.Classes += len(classes)
	return classes
}

// linkClasses is classes for the flows crossing directed link l, grouped
// unless the §5.3 ablation is on.
func (sc scanCtx) linkClasses(l topo.DirLinkID, stat *LinkCheckStat) []scanClass {
	return sc.classes(func(s *FlowSTF) *mtbdd.Node { return s.Links[l] },
		!sc.v.e.opts.DisableLinkLocalEquiv, stat)
}

// sum aggregates classes into one symbolic load on the fused
// multiply-accumulate kernel.
func (sc scanCtx) sum(classes []scanClass) *mtbdd.Node {
	tau := sc.m.Zero()
	for _, c := range classes {
		tau = mulAddTimed(sc.v.kreduceT, sc.fv, tau, c.vol, c.w)
	}
	return tau
}

// load aggregates a subject's symbolic quantity from its equivalence
// classes. An aggregate subject sums each member link as a single-link
// subject would, then combines across links on the fused k-budgeted
// kernels (AddNK / MaxK), so every intermediate stays within the KReduce'd
// size envelope.
func (sc scanCtx) load(s Subject) (*mtbdd.Node, LinkCheckStat) {
	start := time.Now()
	var tau *mtbdd.Node
	var stat LinkCheckStat
	switch {
	case len(s.Links) > 0:
		stat.Kind = "aggregate"
		taus := make([]*mtbdd.Node, len(s.Links))
		for i, l := range s.Links {
			taus[i] = sc.sum(sc.linkClasses(l, &stat))
		}
		if s.Max {
			tau = sc.m.Zero()
			for _, t := range taus {
				tau = sc.m.MaxK(tau, t, sc.fv.K)
			}
		} else {
			tau = sc.m.AddNK(taus, sc.fv.K)
		}
	case s.Prefix.IsValid():
		stat.Kind, stat.Prefix = "delivered", s.Prefix
		tau = sc.sum(sc.classes(func(f *FlowSTF) *mtbdd.Node {
			if !s.Prefix.Contains(f.Flow.Dst) {
				return nil
			}
			return f.Delivered
		}, true, &stat))
	default:
		stat.Link = s.Link
		tau = sc.sum(sc.linkClasses(s.Link, &stat))
	}
	stat.Elapsed = time.Since(start)
	return tau, stat
}

// LinkCheck is one compiled portfolio predicate on a symbolic load: an
// interval bound, an overload-style upper limit (Overload true — violation
// exactly when load > violThreshold(Max)), optionally conditioned on a
// failure variable.
type LinkCheck struct {
	Min, Max float64
	Overload bool
	// CondVar, when >= 0, makes the check conditional: it is evaluated on
	// the cofactor where the variable is failed (guard restriction), with
	// the scan's failure budget reduced by one so the restricted witness
	// plus the guard still fits the run's k.
	CondVar int
}

// ScanResult is one LinkCheck's outcome.
type ScanResult struct {
	Violated bool
	// Value is the load at the witness scenario.
	Value float64
	// FailedLinks / FailedRouters describe the witness scenario. For a
	// conditional check they include the guard element.
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
}

// scanCheck converts a LinkCheck to its terminal-scan predicate: loads
// above violThreshold(Max) for an overload check, outside the
// epsilon-widened [Min, Max] interval otherwise.
func (c LinkCheck) scanCheck() mtbdd.ScanCheck {
	if c.Overload {
		return mtbdd.ScanCheck{Lo: math.Inf(-1), Hi: violThreshold(c.Max), MaxFails: -1}
	}
	return mtbdd.ScanCheck{Lo: c.Min - loadEpsilon, Hi: c.Max + loadEpsilon, MaxFails: -1}
}

// condBudget is the failure budget of a guard-restricted scan: one less
// than the run's effective k (the guard itself is a failure). Returns
// ok=false when the budget admits no failures at all, making every
// conditional property vacuous.
func (sc scanCtx) condBudget() (int, bool) {
	effK := sc.fv.K
	if sc.v.e.opts.CheckK > 0 {
		effK = sc.v.e.opts.CheckK
	}
	if effK < 0 {
		return -1, true // reduction disabled without a check budget: unlimited
	}
	if effK == 0 {
		return 0, false
	}
	return effK - 1, true
}

// scanPortfolio evaluates a batch of checks against one aggregated load:
// the unconditional checks share a single terminal scan of tau, and each
// distinct guard variable adds one scan of its cofactor (counted in the
// returned restrict count). Witness assignments of conditional checks get
// the guard element folded back in.
func (sc scanCtx) scanPortfolio(tau *mtbdd.Node, checks []LinkCheck) ([]ScanResult, int) {
	if k := sc.v.e.opts.CheckK; k > 0 {
		// The deferred KREDUCE of the reduction-disabled ablation.
		tau = sc.m.KReduce(tau, k)
	}
	out := make([]ScanResult, len(checks))

	// Partition: unconditional checks share the one scan; conditionals
	// group by guard variable in first-seen order.
	var uncond []int
	condIdx := make(map[int][]int)
	var condVars []int
	for i, c := range checks {
		if c.CondVar < 0 {
			uncond = append(uncond, i)
		} else {
			if _, seen := condIdx[c.CondVar]; !seen {
				condVars = append(condVars, c.CondVar)
			}
			condIdx[c.CondVar] = append(condIdx[c.CondVar], i)
		}
	}

	fill := func(idxs []int, hits []mtbdd.ScanHit, guard int) {
		for j, i := range idxs {
			h := hits[j]
			if !h.OK {
				continue
			}
			links, routers := scenarioWitness(sc.fv, h.A)
			if guard >= 0 {
				if l, r, isLink := sc.fv.VarElement(guard); isLink {
					links = append(links, l)
					sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })
				} else {
					routers = append(routers, r)
					sort.Slice(routers, func(a, b int) bool { return routers[a] < routers[b] })
				}
			}
			out[i] = ScanResult{Violated: true, Value: h.Value, FailedLinks: links, FailedRouters: routers}
		}
	}

	if len(uncond) > 0 {
		scs := make([]mtbdd.ScanCheck, len(uncond))
		for j, i := range uncond {
			scs[j] = checks[i].scanCheck()
		}
		fill(uncond, sc.m.ScanOutside(tau, scs), -1)
	}

	restricts := 0
	if len(condVars) > 0 {
		budget, feasible := sc.condBudget()
		if feasible {
			for _, cv := range condVars {
				idxs := condIdx[cv]
				scs := make([]mtbdd.ScanCheck, len(idxs))
				for j, i := range idxs {
					s := checks[i].scanCheck()
					s.MaxFails = budget
					scs[j] = s
				}
				restricts++
				fill(idxs, sc.m.ScanOutside(sc.m.Restrict(tau, cv, false), scs), cv)
			}
		}
	}
	return out, restricts
}

// Scan is the one scan primitive: it aggregates the subject's symbolic
// quantity once and evaluates every check against it in a single shared
// terminal scan (conditional checks add one cofactor scan per distinct
// guard; the count is returned as restricts). Scan is governed by the
// budget ladder: on a node-budget breach the engine collects and retries
// once, and an unrelieved breach is reported as skipped under the degrade
// policy (an error otherwise, like cancellation).
func (v *Verifier) Scan(s Subject, checks []LinkCheck) (res []ScanResult, restricts int, skipped bool, err error) {
	sc := v.primaryScan()
	sc.maybeGC()
	skipped, err = sc.governed(func() {
		tau, _ := sc.load(s)
		res, restricts = sc.scanPortfolio(tau, checks)
	})
	if skipped {
		err = nil
	}
	return res, restricts, skipped, err
}

// check evaluates one lowered item: aggregate the subject, scan the one
// check, convert the hit — or, in pruned mode, the §6 early-termination
// scan.
func (sc scanCtx) check(it checkItem) (LinkCheckStat, []Violation) {
	if it.pruned {
		return sc.checkLinkPruned(it)
	}
	tau, stat := sc.load(it.subject)
	res, _ := sc.scanPortfolio(tau, []LinkCheck{it.check})
	return stat, violations(it, res[0])
}

// violations converts a scan hit on an item into its report entry.
func violations(it checkItem, r ScanResult) []Violation {
	if !r.Violated {
		return nil
	}
	v := Violation{
		Kind: "link-load", Link: it.subject.Link, Value: r.Value, Min: it.check.Min, Max: it.check.Max,
		FailedLinks: r.FailedLinks, FailedRouters: r.FailedRouters,
	}
	if it.subject.Prefix.IsValid() {
		v.Kind, v.Prefix = "delivered", it.subject.Prefix
	}
	return []Violation{v}
}

// checkItems runs the items through the budget ladder and writes each
// completed outcome to its slot: on the primary manager with one worker,
// otherwise fanned out over a pool of shard checkers via an atomic cursor
// — every worker checks in a private manager and the slot array keeps the
// accumulation order, and therefore the Report, identical to a one-worker
// run. An item whose check cannot fit the budget under the degrade policy
// is left not done; the first fatal error (cancellation, a breach under
// the fail policy) stops the run and is returned.
func (v *Verifier) checkItems(items []checkItem, results []itemRes) error {
	workers := v.workers
	if workers > len(items) {
		workers = len(items)
	}
	var cursor atomic.Int64
	var stop atomic.Bool
	next := func() int {
		if stop.Load() {
			return len(items)
		}
		return int(cursor.Add(1)) - 1
	}
	if workers <= 1 {
		return v.primaryScan().runItems(items, results, next, nil)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc scanCtx
			if err := contained(func() { sc = v.shardScan() }); err != nil {
				// A budget so tight the shard's FailVars cannot even be
				// built: under the degrade policy the shard bows out (its
				// items go to the other workers or end up unchecked);
				// otherwise it is fatal.
				if !errors.Is(err, govern.ErrNodeBudget) || v.e.opts.OnBudget != BudgetDegrade {
					fail(err)
				}
				return
			}
			defer RecordManager(v.e.opts.Obs, "check-shard."+strconv.Itoa(w), sc.m)
			linkC := v.e.opts.Obs.Counter(workerCounter(w, "links_checked"))
			if err := sc.runItems(items, results, next, linkC); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// runItems is one checker's loop: take the next item, collect if the
// manager has grown, check it through the ladder.
func (sc scanCtx) runItems(items []checkItem, results []itemRes, next func() int, checked *obs.Counter) error {
	for i := next(); i < len(items); i = next() {
		sc.maybeGC()
		r := &results[i]
		degrade, err := sc.governed(func() { r.stat, r.viols = sc.check(items[i]) })
		if err != nil && !degrade {
			return err
		}
		r.done = err == nil
		checked.Inc()
	}
	return nil
}

// checkLinkPruned verifies one directed link against an upper limit with
// the §6 early-termination heuristics: a link whose summed per-class
// maxima cannot reach the limit is passed without any MTBDD aggregation,
// and during aggregation the scan stops as soon as the accumulated maximum
// proves a violation (loads are non-negative, so partial sums only grow)
// or the remaining mass cannot reach the limit.
func (sc scanCtx) checkLinkPruned(it checkItem) (LinkCheckStat, []Violation) {
	start := time.Now()
	m := sc.m
	l, limit := it.subject.Link, it.check.Max
	stat := LinkCheckStat{Link: l}
	classes := sc.linkClasses(l, &stat)
	for i := range classes {
		_, hi := m.Range(classes[i].w)
		classes[i].max = hi
	}

	threshold := violThreshold(limit)

	// Quick bound: if even the per-class maxima cannot reach the limit,
	// the property holds on this link with no aggregation at all.
	total := 0.0
	for _, c := range classes {
		total += c.vol * c.max
	}
	if total <= threshold {
		stat.Elapsed = time.Since(start)
		return stat, nil
	}

	// Aggregate classes in descending contribution order (stable for
	// reproducibility), stopping as soon as either verdict is certain.
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].vol*classes[i].max > classes[j].vol*classes[j].max })
	remaining := total
	tau := m.Zero()
	for _, c := range classes {
		tau = mulAddTimed(sc.v.kreduceT, sc.fv, tau, c.vol, c.w)
		remaining -= c.vol * c.max
		_, hi := m.Range(tau)
		if hi > threshold {
			// The partial maximum already violates, and adding more
			// classes only increases it.
			break
		}
		if hi+remaining <= threshold {
			// Even if every remaining class peaked simultaneously the
			// limit is unreachable.
			stat.Elapsed = time.Since(start)
			return stat, nil
		}
	}
	stat.Elapsed = time.Since(start)
	res, _ := sc.scanPortfolio(tau, []LinkCheck{it.check})
	if r := &res[0]; r.Violated {
		// tau may be a partial sum (early break): recompute the exact
		// load at the witness by evaluating every class there.
		assign := sc.fv.Scenario(r.FailedLinks, r.FailedRouters)
		exact := 0.0
		for _, c := range classes {
			exact += c.vol * m.Eval(c.w, assign)
		}
		if exact > r.Value {
			r.Value = exact
		}
	}
	return stat, violations(it, res[0])
}
