// The one checker core every path scans through. Run and the portfolio
// engine (internal/tlp) both lower to Plans and go through Verifier.Check on
// the verifier's manager, so epsilon handling, governance and the
// early-termination heuristics cannot diverge between paths again.
package core

import (
	"cmp"
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// violThreshold is the single definition of the overload decision boundary:
// a load is a violation of an upper limit exactly when it exceeds
// violThreshold(limit). The quick bound, the early-termination loop, and
// the final terminal scan of every check path compare against this value.
func violThreshold(limit float64) float64 { return limit - loadEpsilon }

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

// scanClass is one link-local equivalence class of a load: an STF node and
// the summed volume riding on it.
type scanClass struct {
	w   *mtbdd.Node
	vol float64
	max float64
}

// classGrouper collects the contributions to a load — an STF node and the
// volume riding on it — into equivalence classes in first-seen order (float
// addition is not associative, so the deterministic order keeps verdicts
// reproducible). With group off every contribution is its own class.
// Classes are keyed by canonical node pointers: hash-consing makes two STFs
// with the same function on a link the same node. A verifier has one
// (Verifier.group), reused load to load.
type classGrouper struct {
	group   bool
	idx     map[*mtbdd.Node]int
	classes []scanClass
}

// groupKeep is the most classes the grouper may have held and still keep
// its map and buffer for the next load: clearing costs their capacity, so
// scratch one large load grew is dropped rather than cleared for every small
// load after it (the rule of the MTBDD layer's walk scratch).
const groupKeep = 1 << 14

// grouper returns the verifier's grouper, empty, grouping unless group is
// off.
func (v *Verifier) grouper(group bool) *classGrouper {
	g := &v.group
	g.group = group
	if group && g.idx == nil {
		g.idx = make(map[*mtbdd.Node]int)
	}
	return g
}

func (g *classGrouper) add(w *mtbdd.Node, vol float64) {
	if g.group {
		if i, ok := g.idx[w]; ok {
			g.classes[i].vol += vol
			return
		}
		g.idx[w] = len(g.classes)
	}
	g.classes = append(g.classes, scanClass{w: w, vol: vol})
}

// take hands the classes out in a fresh slice, which the caller keeps (prune
// sorts it in place), and empties the grouper, pinning no node.
func (g *classGrouper) take() []scanClass {
	out := slices.Clone(g.classes)
	clear(g.classes)
	clear(g.idx)
	g.classes = g.classes[:0]
	if len(out) > groupKeep {
		g.idx, g.classes = nil, nil
	}
	return out
}

// linkClasses is the classes of the STFs crossing directed link l, read off
// the per-link index and grouped unless the §5.3 ablation is on.
func (v *Verifier) linkClasses(l topo.DirLinkID, stat *LinkCheckStat) []scanClass {
	if l < 0 || int(l) >= len(v.linkIdx) {
		return nil
	}
	g := v.grouper(!v.e.opts.DisableLinkLocalEquiv)
	for _, ref := range v.linkIdx[l] {
		g.add(ref.w, v.stfs[ref.stf].Flow.Gbps)
	}
	stat.Flows += len(v.linkIdx[l])
	stat.Classes += len(g.classes)
	return g.take()
}

// deliveredClasses is the classes of the delivered traffic destined inside
// pfx. A global-equivalence class merges flows by matched-prefix set, not
// by destination, so pfx may cover only some of a class's members: each
// class contributes the volume of its member flows inside pfx, added in
// flow order (a class pfx covers whole thus contributes its representative's
// summed volume, bit for bit), and a class with no member inside none.
func (v *Verifier) deliveredClasses(pfx netip.Prefix, stat *LinkCheckStat) []scanClass {
	vols, inside := v.deliveredVolumes(pfx)
	g := v.grouper(true)
	for ci, s := range v.stfs {
		if inside[ci] {
			stat.Flows++
			g.add(s.Delivered, vols[ci])
		}
	}
	stat.Classes += len(g.classes)
	return g.take()
}

// deliveredMemo is deliveredVolumes' answer for the prefix last asked, in
// buffers reused prefix to prefix.
type deliveredMemo struct {
	pfx    netip.Prefix // invalid: nothing memoised
	vols   []float64
	inside []bool
}

// deliveredVolumes is, per class, the volume of its member flows inside pfx,
// added in flow order, and whether it has a member there. A delivered plan
// asks for its prefix's volumes for its load key (loadKey) and again for
// its classes (deliveredClasses); the answer for the last prefix asked is
// kept, so the flows are walked once. Callers read it before they ask for
// another prefix.
func (v *Verifier) deliveredVolumes(pfx netip.Prefix) (vols []float64, inside []bool) {
	d := &v.delivered
	if d.pfx.IsValid() && d.pfx == pfx {
		return d.vols, d.inside
	}
	n := len(v.stfs)
	d.vols, d.inside = slices.Grow(d.vols[:0], n)[:n], slices.Grow(d.inside[:0], n)[:n]
	clear(d.vols)
	clear(d.inside)
	for fi, f := range v.flows {
		if ci := v.classOf[fi]; ci < n && pfx.Contains(f.Dst) {
			d.vols[ci] += f.Gbps
			d.inside[ci] = true
		}
	}
	d.pfx = pfx
	return d.vols, d.inside
}

// splitClasses lays classes out as the n-ary kernels' parallel operand
// slices.
func splitClasses(classes []scanClass) (vols []float64, ws []*mtbdd.Node) {
	vols = make([]float64, len(classes))
	ws = make([]*mtbdd.Node, len(classes))
	for i, c := range classes {
		vols[i], ws[i] = c.vol, c.w
	}
	return vols, ws
}

// sum aggregates classes into one symbolic load: one walk of the n-ary
// fused weighted-sum kernel, in class order.
func (v *Verifier) sum(classes []scanClass) *mtbdd.Node {
	vols, ws := splitClasses(classes)
	v.checkC.total.Add(int64(len(classes)))
	v.checkC.enumerated.Add(int64(len(classes)))
	return v.build(vols, ws)
}

// build is the timed kernel call behind sum and the pruned check.
func (v *Verifier) build(vols []float64, ws []*mtbdd.Node) *mtbdd.Node {
	v.checkC.built.Inc()
	start := time.Now()
	tau := v.e.fv.ReduceSumMul(vols, ws)
	v.aggT.Add(time.Since(start))
	return tau
}

// load aggregates a subject's symbolic quantity from its equivalence
// classes. An aggregate subject sums each member link as a single-link
// subject would, then combines across links on the fused k-budgeted
// kernels (AddNK / MaxK), so every intermediate stays within the KReduce'd
// size envelope. It is the one place a load may be carried (summed): a
// single link's, a delivered prefix's, or an aggregate member's.
func (v *Verifier) load(s Subject) (*mtbdd.Node, LinkCheckStat) {
	start := time.Now()
	var tau *mtbdd.Node
	var stat LinkCheckStat
	linkLoad := func(l topo.DirLinkID) *mtbdd.Node {
		return v.summed(Subject{Link: l}, &stat, func() []scanClass { return v.linkClasses(l, &stat) })
	}
	switch {
	case len(s.Links) > 0:
		stat.Kind = "aggregate"
		taus := make([]*mtbdd.Node, len(s.Links))
		for i, l := range s.Links {
			taus[i] = linkLoad(l)
		}
		if s.Max {
			tau = v.e.m.Zero()
			for _, t := range taus {
				tau = v.e.m.MaxK(tau, t, v.e.fv.K)
			}
		} else {
			tau = v.e.m.AddNK(taus, v.e.fv.K)
		}
	case s.Prefix.IsValid():
		stat.Kind, stat.Prefix = "delivered", s.Prefix
		tau = v.summed(s, &stat, func() []scanClass { return v.deliveredClasses(s.Prefix, &stat) })
	default:
		stat.Link = s.Link
		tau = linkLoad(s.Link)
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
func (v *Verifier) condBudget() (int, bool) {
	effK := v.e.fv.K
	if v.e.opts.CheckK > 0 {
		effK = v.e.opts.CheckK
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
func (v *Verifier) scanPortfolio(tau *mtbdd.Node, checks []LinkCheck) ([]ScanResult, int) {
	if k := v.e.opts.CheckK; k > 0 {
		// The deferred KREDUCE of the reduction-disabled ablation.
		tau = v.e.m.KReduce(tau, k)
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
			links, routers := scenarioWitness(v.e.fv, h.A)
			if guard >= 0 {
				if l, r, isLink := v.e.fv.VarElement(guard); isLink {
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
		fill(uncond, v.e.m.ScanOutside(tau, scs), -1)
	}

	restricts := 0
	if len(condVars) > 0 {
		budget, feasible := v.condBudget()
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
				fill(idxs, v.e.m.ScanOutside(v.e.m.Restrict(tau, cv, false), scs), cv)
			}
		}
	}
	return out, restricts
}

// Plan is one unit of the check stage: a subject, whose symbolic quantity is
// aggregated once, and the checks evaluated against it in a single shared
// terminal scan (conditional checks add one cofactor scan per distinct guard).
type Plan struct {
	Subject Subject
	Checks  []LinkCheck
	// pruned selects the §6 early-termination scan over aggregate-then-scan:
	// one overload check on one link. Only Run's lowering sets it — a pruned
	// witness may differ from a full scan's.
	pruned bool
}

// PlanResult is one plan's outcome slot. Done distinguishes a completed plan
// from one that never ran (a fatal error stopped the run first), whose checks
// are undecided.
type PlanResult struct {
	// Results is parallel to the plan's Checks.
	Results []ScanResult
	// Restricts counts the guard-restricted scans the plan needed.
	Restricts int
	Stat      LinkCheckStat
	Done      bool
}

// Check is the one check loop: every plan goes through the budget ladder on
// the verifier's manager — on a node-budget breach the manager collects and
// the plan retries once — and its outcome is written to its slot, in plan
// order. The first fatal error (cancellation, a breach the retry did not
// relieve, a contained panic, the one that cut execution short) stops the
// loop and is returned with the slots filled so far.
//
// With a CheckCarrier, a keyed plan whose inputs an earlier complete run
// checked takes that run's result (its Elapsed zero: it took no time here)
// instead of running, and a Check that completes hands its keyed results on.
// With a LoadCarrier, a plan that runs takes each load whose inputs an
// earlier Check summed off that Check's sealed list (load), and the loads
// this Check sums are handed on, sealed as one list, however it ends.
func (v *Verifier) Check(plans []Plan) ([]PlanResult, error) {
	out := make([]PlanResult, len(plans))
	if v.err != nil {
		return out, v.err
	}
	carrier, _ := v.e.opts.STFCache.(CheckCarrier)
	if v.classKeys == nil {
		carrier = nil
	}
	var base routesim.Fingerprint
	if carrier != nil {
		base = v.checkBase()
	}
	v.startLoads()
	defer v.endLoads()
	keep := make(map[routesim.Fingerprint]PlanResult)
	carried := 0
	for i, p := range plans {
		key, keyed := base, false
		if carrier != nil {
			key, keyed = v.planKey(base, p)
		}
		if keyed {
			if r, ok := carrier.CarriedCheck(key); ok {
				r.Stat.Elapsed = 0
				out[i], keep[key] = r, r
				carried++
				continue
			}
		}
		if err := v.checkPlan(p, &out[i]); err != nil {
			return out, err
		}
		if keyed {
			keep[key] = out[i]
		}
	}
	if carrier != nil {
		carrier.CarryChecks(keep, carried, len(plans)-carried)
	}
	return out, nil
}

// checkPlan is one governed plan: collect if the manager has grown, then
// check through the ladder.
func (v *Verifier) checkPlan(p Plan, r *PlanResult) error {
	v.e.maybeGC(v.stfs, nil)
	if err := v.e.ladder(v.stfs, func() { r.Results, r.Restricts, r.Stat = v.check(p) }); err != nil {
		return err
	}
	r.Done = true
	return nil
}

// check evaluates one plan: aggregate the subject and scan the checks — or,
// in pruned mode, the §6 early-termination scan.
func (v *Verifier) check(p Plan) ([]ScanResult, int, LinkCheckStat) {
	if p.pruned {
		return v.checkLinkPruned(p)
	}
	tau, stat := v.load(p.Subject)
	res, restricts := v.scanPortfolio(tau, p.Checks)
	return res, restricts, stat
}

// checkLinkPruned verifies one directed link against an upper limit with
// the §6 early-termination heuristics (prune). Only a link that prune stops
// on a violating prefix has a load built — that prefix's — and scanned for
// a witness.
func (v *Verifier) checkLinkPruned(p Plan) ([]ScanResult, int, LinkCheckStat) {
	start := time.Now()
	m := v.e.m
	stat := LinkCheckStat{Link: p.Subject.Link}
	classes := v.linkClasses(p.Subject.Link, &stat)
	stop, holds := v.prune(classes, violThreshold(p.Checks[0].Max))
	if holds {
		stat.Elapsed = time.Since(start)
		return make([]ScanResult, 1), 0, stat
	}
	tau := v.build(splitClasses(classes[:stop]))
	stat.Elapsed = time.Since(start)
	res, _ := v.scanPortfolio(tau, p.Checks)
	if r := &res[0]; r.Violated {
		// tau may be a partial sum (early stop): recompute the exact
		// load at the witness by evaluating every class there.
		assign := v.e.fv.Scenario(r.FailedLinks, r.FailedRouters)
		exact := 0.0
		for _, c := range classes {
			exact += float64(c.vol * m.Eval(c.w, assign))
		}
		if exact > r.Value {
			r.Value = exact
		}
	}
	return res, 0, stat
}

// prune is the §6 early termination of one link's overload check, with no
// node built. A link whose summed per-class maxima cannot exceed threshold
// holds without enumerating anything (the quick bound). Otherwise the
// classes are sorted, in place, by descending contribution and taken one by
// one until a prefix of them — stop is its length — settles the link: it
// does not hold if the prefix's in-budget maximum exceeds threshold (loads
// are non-negative, so partial sums only grow; the prefix's load is what the
// caller builds and scans), and holds if that maximum plus the remaining
// mass cannot reach it. The prefix maxima are exactly the upper Range ends
// of the partial loads, read off the n-ary kernel over growing prefixes, so
// a link its heaviest classes settle never enumerates the scenarios of the
// rest.
func (v *Verifier) prune(classes []scanClass, threshold float64) (stop int, holds bool) {
	cc := &v.checkC
	cc.total.Add(int64(len(classes)))
	total := 0.0
	for i := range classes {
		c := &classes[i]
		_, c.max = v.e.m.Range(c.w)
		total += float64(c.vol * c.max)
	}
	if total <= threshold {
		cc.bounded.Inc()
		return 0, true
	}

	// Descending contribution order, stable for reproducibility.
	slices.SortStableFunc(classes, func(a, b scanClass) int { return cmp.Compare(b.vol*b.max, a.vol*a.max) })
	vols, ws := splitClasses(classes)
	remaining := total
	var his []float64
	for i, c := range classes {
		if i == len(his) {
			his = v.prefixMax(vols, ws, len(his))
		}
		remaining -= float64(c.vol * c.max)
		if his[i] > threshold {
			// The partial maximum already violates, and adding more
			// classes only increases it.
			return i + 1, false
		}
		if his[i]+remaining <= threshold {
			// Even if every remaining class peaked simultaneously the
			// limit is unreachable.
			cc.decided.Inc()
			return i + 1, true
		}
	}
	return len(classes), false
}

// prefixMaxStart is the first prefix length the pruned check enumerates;
// each further round doubles it.
const prefixMaxStart = 8

// prefixMax is the timed kernel call of the pruned check: with the maxima
// of the first have operands known, it returns those of the next, doubled
// prefix.
func (v *Verifier) prefixMax(vols []float64, ws []*mtbdd.Node, have int) []float64 {
	n := 2 * have
	if n < prefixMaxStart {
		n = prefixMaxStart
	}
	if n > len(ws) {
		n = len(ws)
	}
	v.checkC.enumerated.Add(int64(n - have))
	start := time.Now()
	his := v.e.fv.ReducePrefixMax(vols[:n], ws[:n])
	v.aggT.Add(time.Since(start))
	return his
}
