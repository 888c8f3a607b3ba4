package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

var infinity = math.Inf(1)

// tolerance absorbs the floating-point noise of ECMP fraction arithmetic
// when comparing loads computed by independent implementations.
const tolerance = 1e-6

// Oracle is one named correctness check over a generated case. An oracle
// returns nil when the case agrees with it and a descriptive error naming
// the first disagreement otherwise.
type Oracle struct {
	Name string
	Run  func(*Case) error
}

// Battery is the full oracle battery, cheapest first. RunAll executes it
// in order; cmd/yudiff and the fuzz targets share it.
func Battery() []Oracle {
	return []Oracle{
		{"loads-vs-concrete", OracleLoadsVsConcrete},
		{"violation-sets", OracleViolationSets},
		{"global-equiv", OracleGlobalEquiv},
		{"monotonicity-in-k", OracleMonotonicity},
		{"kreduce-soundness", OracleKReduceSoundness},
		{"witness-revalidation", OracleWitnessRevalidation},
		{"spec-round-trip", OracleSpecRoundTrip},
		{"governance", OracleGovernance},
		{"tlp-portfolio", OracleTLPPortfolio},
		{"modular-vs-monolithic", OracleModularVsMonolithic},
	}
}

// RunAll runs the whole battery and returns the first disagreement,
// wrapped with the oracle's name.
func RunAll(c *Case) error {
	for _, o := range Battery() {
		if err := o.Run(c); err != nil {
			return fmt.Errorf("oracle %s: %w", o.Name, err)
		}
	}
	return nil
}

// buildVerifier runs the symbolic pipeline (route simulation + flow
// execution) for the case on a fresh manager.
func buildVerifier(c *Case, budget int, engOpts core.Options) (*core.Verifier, *mtbdd.Manager, *routesim.FailVars, error) {
	m := mtbdd.New()
	fv := routesim.NewFailVars(m, c.Spec.Net, c.Mode, budget)
	rs, err := routesim.Run(fv, c.Spec.Configs)
	if err != nil {
		return nil, nil, nil, err
	}
	eng := core.NewEngine(rs, engOpts)
	return core.NewVerifier(eng, c.Spec.Flows), m, fv, nil
}

// OracleLoadsVsConcrete is the strongest check: the symbolic traffic load
// of every directed link, evaluated at every scenario with at most k
// failures, must equal the concrete simulator's load exactly (within
// float tolerance); per-flow conservation (delivered + dropped = volume)
// must hold concretely in every scenario.
func OracleLoadsVsConcrete(c *Case) error {
	net := c.Spec.Net
	ver, m, fv, err := buildVerifier(c, c.K, core.Options{DisableGlobalEquiv: true})
	if err != nil {
		return err
	}
	// Aggregate all per-link STLs up front so scenario evaluation is a
	// pure MTBDD walk.
	taus := make(map[topo.DirLinkID]*mtbdd.Node)
	for li := 0; li < net.NumLinks(); li++ {
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			dl := topo.MakeDirLinkID(topo.LinkID(li), d)
			tau, _ := ver.LinkLoad(dl)
			taus[dl] = tau
		}
	}
	sim := concrete.NewSim(net, c.Spec.Configs)
	return forEachScenario(net, c.Mode, c.K, func(links []topo.LinkID, routers []topo.RouterID) error {
		sc := concrete.NewScenario(net)
		for _, l := range links {
			sc.LinkDown[l] = true
		}
		for _, r := range routers {
			sc.RouterDown[r] = true
		}
		res := sim.Simulate(sc, c.Spec.Flows)
		assign := fv.Scenario(links, routers)
		for dl, tau := range taus {
			sym := m.Eval(tau, assign)
			conc := res.Load[dl]
			if math.Abs(sym-conc) > tolerance {
				return fmt.Errorf("failed=%v/%v link %s: symbolic %.9g vs concrete %.9g",
					links, routers, net.DirLinkName(dl), sym, conc)
			}
		}
		for fi, f := range c.Spec.Flows {
			if math.Abs(res.Delivered[fi]+res.Dropped[fi]-f.Gbps) > tolerance {
				return fmt.Errorf("failed=%v/%v flow %d: delivered %.9g + dropped %.9g != %.9g",
					links, routers, fi, res.Delivered[fi], res.Dropped[fi], f.Gbps)
			}
		}
		return nil
	})
}

// verifyOpts assembles the standard yu.VerifyOptions for a case.
func verifyOpts(c *Case, k int, engine yu.Engine) yu.VerifyOptions {
	return yu.VerifyOptions{
		K:              k,
		Mode:           c.Mode,
		ModeSet:        true,
		OverloadFactor: c.OverloadFactor,
		Engine:         engine,
		Incremental:    true,
	}
}

// OracleViolationSets checks that the symbolic engine and the enumerating
// baseline flag exactly the same set of violated properties — the
// cross-engine equality xcheck_test.go relies on, run on every generated
// case.
func OracleViolationSets(c *Case) error {
	n := yu.FromSpec(c.Spec)
	yuRep, err := n.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	enumRep, err := n.Verify(verifyOpts(c, c.K, yu.EngineEnumerate))
	if err != nil {
		return err
	}
	a := ViolationKeys(c.Spec.Net, yuRep.Violations)
	b := ViolationKeys(c.Spec.Net, enumRep.Violations)
	if err := sameStringSets(a, b); err != nil {
		return fmt.Errorf("symbolic vs enumerate: %w", err)
	}
	if yuRep.Holds != enumRep.Holds {
		return fmt.Errorf("Holds disagrees: symbolic %v, enumerate %v", yuRep.Holds, enumRep.Holds)
	}
	return nil
}

// OracleGlobalEquiv checks the representative-sharing contract of global
// flow equivalence (§6, the unit of execution): verdicts
// computed by executing one representative per equivalence class and
// fanning the result out to every member must equal verdicts from
// executing every flow individually. Violation sets and the overall
// verdict must match exactly; load values may differ only by float
// association noise, which ViolationKeys' fixed-precision rendering
// absorbs. Every input flow is either a class's representative or one of its
// dedup hits.
func OracleGlobalEquiv(c *Case) error {
	n := yu.FromSpec(c.Spec)
	perFlowOpts := verifyOpts(c, c.K, yu.EngineYU)
	perFlowOpts.DisableGlobalEquiv = true
	perFlow, err := n.Verify(perFlowOpts)
	if err != nil {
		return err
	}
	shared, err := n.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	if dedup := shared.Sched.DedupHits; dedup != len(c.Spec.Flows)-shared.FlowsExecuted {
		return fmt.Errorf("%d dedup hits for %d flows / %d executed",
			dedup, len(c.Spec.Flows), shared.FlowsExecuted)
	}
	a := ViolationKeys(c.Spec.Net, perFlow.Violations)
	b := ViolationKeys(c.Spec.Net, shared.Violations)
	if err := sameStringSets(a, b); err != nil {
		return fmt.Errorf("per-flow vs class-shared: %w", err)
	}
	if perFlow.Holds != shared.Holds {
		return fmt.Errorf("Holds disagrees: per-flow %v, class-shared %v", perFlow.Holds, shared.Holds)
	}
	return nil
}

// OracleMonotonicity checks that growing the failure budget only grows
// the violation set: every property violated within k failures is also
// violated within k+1 (the scenario space is a superset).
func OracleMonotonicity(c *Case) error {
	n := yu.FromSpec(c.Spec)
	repK, err := n.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	repK1, err := n.Verify(verifyOpts(c, c.K+1, yu.EngineYU))
	if err != nil {
		return err
	}
	small := ViolationKeys(c.Spec.Net, repK.Violations)
	big := make(map[string]bool)
	for _, k := range ViolationKeys(c.Spec.Net, repK1.Violations) {
		big[k] = true
	}
	for _, k := range small {
		if !big[k] {
			return fmt.Errorf("%q violated at k=%d but not at k=%d", k, c.K, c.K+1)
		}
	}
	return nil
}

// OracleKReduceSoundness checks Lemma 1 end to end: the KReduce'd
// pipeline and the unreduced pipeline (budget -1) agree on every
// aggregated symbolic traffic load at every assignment with at most k
// failures. KREDUCE only merges subtrees beyond the budget, and MTBDD
// arithmetic is pointwise, so agreement must be exact.
func OracleKReduceSoundness(c *Case) error {
	net := c.Spec.Net
	verRed, mRed, fvRed, err := buildVerifier(c, c.K, core.Options{})
	if err != nil {
		return err
	}
	verFull, mFull, fvFull, err := buildVerifier(c, -1, core.Options{})
	if err != nil {
		return err
	}
	for li := 0; li < net.NumLinks(); li++ {
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			dl := topo.MakeDirLinkID(topo.LinkID(li), d)
			tauRed, _ := verRed.LinkLoad(dl)
			tauFull, _ := verFull.LinkLoad(dl)
			err := forEachScenario(net, c.Mode, c.K, func(links []topo.LinkID, routers []topo.RouterID) error {
				red := mRed.Eval(tauRed, fvRed.Scenario(links, routers))
				full := mFull.Eval(tauFull, fvFull.Scenario(links, routers))
				if math.Abs(red-full) > 1e-12 {
					return fmt.Errorf("link %s failed=%v/%v: reduced %.12g vs unreduced %.12g",
						net.DirLinkName(dl), links, routers, red, full)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// OracleWitnessRevalidation concretizes every reported violation's
// witness scenario, re-runs it through the independent concrete
// simulator, and confirms (a) the concrete value matches the reported
// value and (b) the bound is genuinely crossed. A verifier that reports a
// right verdict with a wrong witness fails here and nowhere else.
func OracleWitnessRevalidation(c *Case) error {
	n := yu.FromSpec(c.Spec)
	rep, err := n.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	sim := concrete.NewSim(c.Spec.Net, c.Spec.Configs)
	for i, v := range rep.Violations {
		if len(v.FailedLinks)+len(v.FailedRouters) > c.K {
			return fmt.Errorf("violation %d: witness has %d failures, budget is %d",
				i, len(v.FailedLinks)+len(v.FailedRouters), c.K)
		}
		sc := concrete.NewScenario(c.Spec.Net)
		for _, l := range v.FailedLinks {
			sc.LinkDown[l] = true
		}
		for _, r := range v.FailedRouters {
			sc.RouterDown[r] = true
		}
		res := sim.Simulate(sc, c.Spec.Flows)
		var conc float64
		switch v.Kind {
		case "link-load":
			conc = res.Load[v.Link]
		case "delivered":
			for fi, f := range c.Spec.Flows {
				if v.Prefix.Contains(f.Dst) {
					conc += res.Delivered[fi]
				}
			}
		default:
			return fmt.Errorf("violation %d: unknown kind %q", i, v.Kind)
		}
		if math.Abs(conc-v.Value) > tolerance {
			return fmt.Errorf("violation %d (%s): reported value %.9g, concrete re-run says %.9g",
				i, v.Kind, v.Value, conc)
		}
		// The witness must genuinely cross the violated bound (3×
		// tolerance mirrors the verifier's own epsilon slack).
		crossesMax := !math.IsInf(v.Max, 1) && conc > v.Max-3*tolerance
		crossesMin := v.Min > 0 && conc < v.Min+3*tolerance
		if !crossesMax && !crossesMin {
			return fmt.Errorf("violation %d (%s): concrete value %.9g inside bounds [%.9g, %.9g]",
				i, v.Kind, conc, v.Min, v.Max)
		}
	}
	return nil
}

// OracleSpecRoundTrip formats the case's spec into the config DSL, parses
// it back, and requires (a) formatting the re-parsed spec reproduces the
// text (fixpoint) and (b) verification of the re-parsed spec renders a
// byte-identical report — so cmd/yudiff reproducer specs are faithful.
func OracleSpecRoundTrip(c *Case) error {
	txt, err := FormatSpec(c.Spec)
	if err != nil {
		return err
	}
	n2, err := yu.LoadString(txt)
	if err != nil {
		return fmt.Errorf("re-parse failed: %w\n%s", err, txt)
	}
	txt2, err := FormatSpec(n2.Spec())
	if err != nil {
		return err
	}
	if txt != txt2 {
		return fmt.Errorf("format not a fixpoint:\n--- first ---\n%s--- second ---\n%s", txt, txt2)
	}
	rep1, err := yu.FromSpec(c.Spec).Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	rep2, err := n2.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	ra, rb := FormatReport(c.Spec.Net, rep1), FormatReport(n2.Spec().Net, rep2)
	if ra != rb {
		return fmt.Errorf("re-parsed spec verifies differently\n--- original ---\n%s--- round-tripped ---\n%s", ra, rb)
	}
	return nil
}

// OracleGovernance exercises the resource-governance surface on every
// generated case: a pre-canceled context and a 1-node budget must both
// produce typed errors with partial reports (never a panic or a wrong
// verdict), and the degrade policy must stay consistent with the
// enumerating baseline — it may leave targets unchecked, but every verdict
// it does render must match, and a rerun must render the identical report.
func OracleGovernance(c *Case) error {
	n := yu.FromSpec(c.Spec)
	net := c.Spec.Net

	// (1) Pre-canceled context: immediate typed unwind, nothing checked,
	// nothing claimed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := verifyOpts(c, c.K, yu.EngineYU)
	opts.Ctx = ctx
	rep, err := n.Verify(opts)
	if !errors.Is(err, yu.ErrCanceled) {
		return fmt.Errorf("pre-canceled ctx: err = %v, want yu.ErrCanceled", err)
	}
	if rep == nil || !rep.Incomplete {
		return fmt.Errorf("pre-canceled ctx: want a partial report with Incomplete set, got %+v", rep)
	}
	if len(rep.Violations) != 0 {
		return fmt.Errorf("pre-canceled ctx: %d violations reported by a run that checked nothing", len(rep.Violations))
	}

	// (2) One-node budget under the fail policy: typed unwind with a
	// partial report.
	opts = verifyOpts(c, c.K, yu.EngineYU)
	opts.MaxNodes = 1
	rep, err = n.Verify(opts)
	if !errors.Is(err, yu.ErrNodeBudget) {
		return fmt.Errorf("max-nodes=1: err = %v, want yu.ErrNodeBudget", err)
	}
	if rep == nil || !rep.Incomplete {
		return fmt.Errorf("max-nodes=1: want a partial report with Incomplete set, got %+v", rep)
	}

	// (3) Degrade policy vs the enumerating baseline, at a budget that
	// forces degradation and one that usually permits symbolic operation.
	base, err := n.Verify(verifyOpts(c, c.K, yu.EngineEnumerate))
	if err != nil {
		return err
	}
	baseKeys := ViolationKeys(net, base.Violations)
	for _, budget := range []int{64, 4000} {
		opts = verifyOpts(c, c.K, yu.EngineYU)
		opts.MaxNodes = budget
		opts.OnBudget = yu.BudgetDegrade
		rep1, err := n.Verify(opts)
		if err != nil {
			return fmt.Errorf("degrade budget=%d: %w", budget, err)
		}
		rep2, err := n.Verify(opts)
		if err != nil {
			return fmt.Errorf("degrade budget=%d rerun: %w", budget, err)
		}
		if rep1.Incomplete {
			return fmt.Errorf("degrade budget=%d: report left incomplete — the ladder must bottom out in a verdict", budget)
		}
		if a, b := FormatReport(net, rep1), FormatReport(net, rep2); a != b {
			return fmt.Errorf("degrade budget=%d is nondeterministic\n--- first ---\n%s--- second ---\n%s", budget, a, b)
		}
		// Every degraded-mode verdict must be a baseline verdict...
		baseSet := make(map[string]bool, len(baseKeys))
		for _, k := range baseKeys {
			baseSet[k] = true
		}
		degKeys := ViolationKeys(net, rep1.Violations)
		degSet := make(map[string]bool, len(degKeys))
		for _, k := range degKeys {
			if !baseSet[k] {
				return fmt.Errorf("degrade budget=%d: phantom violation %q not found by the baseline", budget, k)
			}
			degSet[k] = true
		}
		// ...and every baseline violation on a target the degraded run
		// actually checked must be reported.
		unchecked := make(map[string]bool)
		for _, l := range rep1.Unchecked {
			unchecked["link-load "+net.DirLinkName(l)] = true
		}
		for _, p := range rep1.UncheckedDelivered {
			unchecked["delivered "+p.String()] = true
		}
		for _, k := range baseKeys {
			if !unchecked[k] && !degSet[k] {
				return fmt.Errorf("degrade budget=%d: baseline violation %q missed on a checked target", budget, k)
			}
		}
	}
	return nil
}

// OracleModularVsMonolithic checks compositional verification (internal/
// compose) against the monolithic pipeline: the same case auto-partitioned
// into 2 and 3 AS-closed domains must render a byte-identical report —
// same violations, same witnesses, same check statistics — and so must the
// portfolio mirroring the case's properties (VerifyPortfolio shares the build
// stage). Every modular witness is additionally concretized and re-run
// through the independent concrete simulator, so a modular run that gets
// the verdict right with a summary-corrupted witness still fails here.
func OracleModularVsMonolithic(c *Case) error {
	net := c.Spec.Net
	n := yu.FromSpec(c.Spec)
	mono, err := n.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	monoTxt := FormatReport(net, mono)
	props, _ := mirrorPortfolio(c)
	monoPort, err := n.VerifyPortfolio(props, verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	monoPortTxt := canon.FormatPortfolio(net, monoPort)
	sim := concrete.NewSim(net, c.Spec.Configs)
	for _, domains := range []int{2, 3} {
		opts := verifyOpts(c, c.K, yu.EngineYU)
		opts.AutoDomains = domains
		rep, err := n.Verify(opts)
		if err != nil {
			return fmt.Errorf("domains=%d: %w", domains, err)
		}
		if txt := FormatReport(net, rep); txt != monoTxt {
			return fmt.Errorf("domains=%d report differs\n--- monolithic ---\n%s--- modular ---\n%s",
				domains, monoTxt, txt)
		}
		port, err := n.VerifyPortfolio(props, opts)
		if err != nil {
			return fmt.Errorf("domains=%d portfolio: %w", domains, err)
		}
		if txt := canon.FormatPortfolio(net, port); txt != monoPortTxt {
			return fmt.Errorf("domains=%d portfolio differs\n--- monolithic ---\n%s--- modular ---\n%s",
				domains, monoPortTxt, txt)
		}
		for i, v := range rep.Violations {
			if len(v.FailedLinks)+len(v.FailedRouters) > c.K {
				return fmt.Errorf("domains=%d: violation %d witness has %d failures, budget is %d",
					domains, i, len(v.FailedLinks)+len(v.FailedRouters), c.K)
			}
			sc := concrete.NewScenario(net)
			for _, l := range v.FailedLinks {
				sc.LinkDown[l] = true
			}
			for _, r := range v.FailedRouters {
				sc.RouterDown[r] = true
			}
			res := sim.Simulate(sc, c.Spec.Flows)
			var conc float64
			switch v.Kind {
			case "link-load":
				conc = res.Load[v.Link]
			case "delivered":
				for fi, f := range c.Spec.Flows {
					if v.Prefix.Contains(f.Dst) {
						conc += res.Delivered[fi]
					}
				}
			default:
				return fmt.Errorf("domains=%d: violation %d has unknown kind %q", domains, i, v.Kind)
			}
			if math.Abs(conc-v.Value) > tolerance {
				return fmt.Errorf("domains=%d: violation %d (%s) reports %.9g, concrete re-run of its witness says %.9g",
					domains, i, v.Kind, v.Value, conc)
			}
		}
	}
	return nil
}

// sameStringSets reports the first element present in exactly one of two
// string slices (treated as sets).
func sameStringSets(a, b []string) error {
	in := func(xs []string) map[string]bool {
		m := make(map[string]bool, len(xs))
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	ma, mb := in(a), in(b)
	for x := range ma {
		if !mb[x] {
			return fmt.Errorf("%q in first set only (first=%v second=%v)", x, a, b)
		}
	}
	for x := range mb {
		if !ma[x] {
			return fmt.Errorf("%q in second set only (first=%v second=%v)", x, a, b)
		}
	}
	return nil
}
