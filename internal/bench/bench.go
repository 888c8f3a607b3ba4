// Package bench implements the experiment harness regenerating every
// table and figure of the paper's evaluation (§7). Each runner prints the
// same rows/series the paper reports; cmd/yubench drives them and
// bench_test.go exposes representative points as testing.B benchmarks.
//
// Absolute numbers differ from the paper (synthetic topologies, scaled
// flow counts, one goroutine instead of a 96-core server); the reproduced
// claims are the *shapes*: who wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/spath"
	"github.com/yu-verify/yu/internal/topo"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks networks and sweeps so the full suite finishes in a
	// few minutes on a laptop.
	Quick Scale = iota
	// Full uses the Table 3 router/link counts and the paper's sweep
	// ranges (hours of single-threaded compute for the largest cells).
	Full
)

// netCase describes one benchmark network with its workload and budget.
type netCase struct {
	name  string
	ws    gen.WANSpec
	flows int
	ks    []int
}

// wanCases returns the N0/N1/N2/WAN ladder at the chosen scale. Flow
// counts are scaled from the paper's 10^7-10^9 (see DESIGN.md); global
// flow equivalence makes execution cost depend on distinct behaviors, not
// raw counts, which Fig 12 demonstrates explicitly.
func wanCases(scale Scale) []netCase {
	if scale == Full {
		return []netCase{
			{"N0", gen.Table3()["N0"], 50000, []int{1, 2, 3, 4}},
			{"N1", gen.Table3()["N1"], 100000, []int{1, 2, 3}},
			{"N2", gen.Table3()["N2"], 200000, []int{1, 2}},
			{"WAN", gen.Table3()["WAN"], 200000, []int{1, 2}},
		}
	}
	return []netCase{
		{"N0", gen.WANSpec{Routers: 100, Links: 200, Prefixes: 60, SRPolicyFraction: 0.1, Seed: 10}, 5000, []int{1, 2}},
		{"N1", gen.WANSpec{Routers: 200, Links: 500, Prefixes: 100, SRPolicyFraction: 0.1, Seed: 11}, 10000, []int{1}},
		{"N2", gen.WANSpec{Routers: 500, Links: 2500, Prefixes: 120, SRPolicyFraction: 0.1, Seed: 12}, 20000, []int{1}},
		{"WAN", gen.WANSpec{Routers: 1000, Links: 4000, Prefixes: 150, SRPolicyFraction: 0.1, Seed: 13}, 20000, []int{1}},
	}
}

// buildWAN generates a WAN case and its workload.
func buildWAN(c netCase) (*config.Spec, []topo.Flow, error) {
	spec, err := gen.WAN(c.ws)
	if err != nil {
		return nil, nil, err
	}
	flows, err := flowgen.Random(spec, flowgen.RandomSpec{
		Count: c.flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: c.ws.Seed + 100,
	})
	if err != nil {
		return nil, nil, err
	}
	return spec, flows, nil
}

// YURun holds the measurements of one symbolic verification run.
type YURun struct {
	Elapsed    time.Duration
	Violations int
	MTBDDNodes int
	Executed   int
	LinkStats  []core.LinkCheckStat
}

// runYU executes the full YU pipeline sequentially.
func runYU(spec *config.Spec, flows []topo.Flow, k int, mode topo.FailureMode, opts core.Options, overload float64) (*YURun, error) {
	start := time.Now()
	m := mtbdd.New()
	budget := k
	if opts.CheckK > 0 {
		budget = -1 // "w/o MTBDD reduction" ablation
	}
	rs, err := routesim.Run(routesim.NewFailVars(m, spec.Net, mode, budget), spec.Configs)
	if err != nil {
		return nil, err
	}
	rep, err := core.NewVerifier(core.NewEngine(rs, opts), flows).Run(nil, nil, overload)
	if err != nil {
		return nil, err
	}
	return &YURun{
		Elapsed:    time.Since(start),
		Violations: len(rep.Violations),
		// Peak unique-table size: the Fig 16 "MTBDD nodes generated"
		// metric, independent of managed-GC timing.
		MTBDDNodes: m.Stats().PeakUnique,
		Executed:   rep.FlowsExecuted,
		LinkStats:  rep.LinkStats,
	}, nil
}

// fmtDur renders durations compactly for tables.
func fmtDur(d time.Duration, timedOut bool) string {
	if timedOut {
		return "> " + d.Truncate(time.Second).String() + " (timeout)"
	}
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
}

// Table3 prints the network-characteristics table (paper Table 3) for the
// generated stand-in networks.
func Table3(w io.Writer, scale Scale) error {
	fmt.Fprintln(w, "Table 3: network characteristics (synthetic stand-ins; paper values in DESIGN.md)")
	fmt.Fprintf(w, "%-6s %9s %8s %10s %10s\n", "net", "routers", "links", "prefixes", "flows")
	for _, c := range wanCases(scale) {
		spec, flows, err := buildWAN(c)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %9d %8d %10d %10d\n",
			c.name, spec.Net.NumRouters(), spec.Net.NumLinks(), len(gen.Prefixes(spec)), len(flows))
	}
	return nil
}

// Fig11 prints verification time for k-link failures across the network
// ladder, YU vs the Jingubang-style enumerating baseline (paper Fig 11).
// Fig17 is the same series under router failures.
func Fig11(w io.Writer, scale Scale, mode topo.FailureMode, baselineBudget time.Duration) error {
	title := "Fig 11: k-link-failure verification time"
	if mode == topo.FailRouters {
		title = "Fig 17: k-router-failure verification time"
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %3s %14s %20s %12s\n", "net", "k", "YU", "Jingubang(enum)", "YU viol")
	for _, c := range wanCases(scale) {
		spec, flows, err := buildWAN(c)
		if err != nil {
			return err
		}
		for _, k := range c.ks {
			run, err := runYU(spec, flows, k, mode, core.Options{}, 1.0)
			if err != nil {
				return err
			}
			// The enumerating baseline is only feasible on the smallest
			// network and budget (the paper, too, could only run it on
			// N0 with k<=2).
			enumStr := "-"
			if c.name == "N0" && k <= 2 {
				sim := concrete.NewSim(spec.Net, spec.Configs)
				es := time.Now()
				ectx, ecancel := context.WithTimeout(context.Background(), baselineBudget)
				erep := sim.VerifyKFailures(flows, k, mode, concrete.EnumOptions{
					OverloadFactor: 1.0,
					Incremental:    true,
					Ctx:            ectx,
				})
				ecancel()
				enumStr = fmtDur(time.Since(es), erep.TimedOut)
			}
			fmt.Fprintf(w, "%-6s %3d %14s %20s %12d\n",
				c.name, k, fmtDur(run.Elapsed, false), enumStr, run.Violations)
		}
	}
	return nil
}

// Fig12 prints WAN verification time against the number of input flows
// for k in {1,2} under link and router failures (paper Fig 12): thanks to
// global and link-local flow equivalence the curve is nearly flat.
func Fig12(w io.Writer, scale Scale) error {
	c := wanCases(scale)[0] // N0-sized at Quick
	if scale == Full {
		c = wanCases(scale)[3] // the real WAN
	}
	spec, err := gen.WAN(c.ws)
	if err != nil {
		return err
	}
	counts := []int{c.flows / 8, c.flows / 4, c.flows / 2, c.flows}
	ks := []int{1}
	if scale == Full {
		ks = []int{1, 2}
	}
	fmt.Fprintln(w, "Fig 12: verification time vs number of flows")
	fmt.Fprintf(w, "%-10s %3s %8s %14s %14s %10s\n", "mode", "k", "flows", "time", "exec'd flows", "nodes")
	for _, mode := range []topo.FailureMode{topo.FailLinks, topo.FailRouters} {
		for _, k := range ks {
			for _, n := range counts {
				flows, err := flowgen.Random(spec, flowgen.RandomSpec{
					Count: n, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: c.ws.Seed + 100,
				})
				if err != nil {
					return err
				}
				run, err := runYU(spec, flows, k, mode, core.Options{}, 1.0)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10s %3d %8d %14s %14d %10d\n",
					mode, k, n, fmtDur(run.Elapsed, false), run.Executed, run.MTBDDNodes)
			}
		}
	}
	return nil
}

// percentile returns the p-quantile (0..1) of sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// Fig13and14 prints the per-link TLP verification time and flow-count
// distributions with and without link-local equivalence (paper Figs 13
// and 14).
func Fig13and14(w io.Writer, scale Scale) error {
	c := wanCases(scale)[0]
	spec, flows, err := buildWAN(c)
	if err != nil {
		return err
	}
	type dist struct {
		times   []float64 // ms per link
		classes []float64 // aggregation units per link
	}
	run := func(disable bool) (*dist, error) {
		// "w/o equiv" disables both global and link-local equivalence:
		// the paper's baseline aggregates raw, unmerged flows.
		r, err := runYU(spec, flows, 1, topo.FailLinks, core.Options{
			DisableLinkLocalEquiv:   disable,
			DisableGlobalEquiv:      disable,
			DisableEarlyTermination: true, // isolate the equivalence effect
		}, 1.0)
		if err != nil {
			return nil, err
		}
		d := &dist{}
		for _, s := range r.LinkStats {
			if s.Flows == 0 {
				continue
			}
			d.times = append(d.times, float64(s.Elapsed.Microseconds())/1000)
			d.classes = append(d.classes, float64(s.Classes))
		}
		sort.Float64s(d.times)
		sort.Float64s(d.classes)
		return d, nil
	}
	with, err := run(false)
	if err != nil {
		return err
	}
	without, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig 13: per-link TLP verification time (ms) CDF points")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "variant", "p50", "p90", "p99", "max")
	for _, row := range []struct {
		name string
		d    *dist
	}{{"w/ equiv", with}, {"w/o equiv", without}} {
		fmt.Fprintf(w, "%-12s %10.3f %10.3f %10.3f %10.3f\n", row.name,
			percentile(row.d.times, 0.5), percentile(row.d.times, 0.9),
			percentile(row.d.times, 0.99), percentile(row.d.times, 1))
	}
	fmt.Fprintln(w, "Fig 14: per-link aggregated flow/class counts CDF points")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "variant", "p50", "p90", "p99", "max")
	for _, row := range []struct {
		name string
		d    *dist
	}{{"w/ equiv", with}, {"w/o equiv", without}} {
		fmt.Fprintf(w, "%-12s %10.0f %10.0f %10.0f %10.0f\n", row.name,
			percentile(row.d.classes, 0.5), percentile(row.d.classes, 0.9),
			percentile(row.d.classes, 0.99), percentile(row.d.classes, 1))
	}
	return nil
}

// Fig15and16 prints the FT-4 flow sweep: YU, YU without KREDUCE, and the
// QARC-style baseline (times, Fig 15) plus MTBDD node counts with and
// without reduction (Fig 16).
func Fig15and16(w io.Writer, scale Scale, baselineBudget time.Duration) error {
	spec, err := gen.FatTree(gen.FatTreeSpec{Pods: 4})
	if err != nil {
		return err
	}
	sweep := []int{2, 5, 9, 13, 17, 21}
	if scale == Quick {
		sweep = []int{2, 9, 21}
	}
	fmt.Fprintln(w, "Fig 15/16: FT-4, 2-link failures, flow sweep")
	fmt.Fprintf(w, "%-7s %12s %16s %14s %14s %16s\n",
		"flows", "YU", "YU w/o KREDUCE", "QARC(spath)", "nodes w/", "nodes w/o")
	for _, n := range sweep {
		flows, err := flowgen.Pairwise(spec, 5, float64(n)/56.0, 1)
		if err != nil {
			return err
		}
		run, err := runYU(spec, flows, 2, topo.FailLinks, core.Options{}, 1.0)
		if err != nil {
			return err
		}
		noRed, err := runYU(spec, flows, 2, topo.FailLinks, core.Options{CheckK: 2}, 1.0)
		if err != nil {
			return err
		}
		model := spath.NewModel(spec.Net, spec.Configs, flows)
		qs := time.Now()
		qctx, qcancel := context.WithTimeout(context.Background(), baselineBudget)
		qrep := model.Verify(2, spath.Options{OverloadFactor: 1.0, Ctx: qctx})
		qcancel()
		fmt.Fprintf(w, "%-7d %12s %16s %14s %14d %16d\n",
			len(flows), fmtDur(run.Elapsed, false), fmtDur(noRed.Elapsed, false),
			fmtDur(time.Since(qs), qrep.TimedOut), run.MTBDDNodes, noRed.MTBDDNodes)
	}
	return nil
}

// Table4 prints the FT-4/8/12 × flow-fraction matrix comparing YU, the
// QARC-style baseline, and the Jingubang-style baseline under 2-link
// failures (paper Table 4).
func Table4(w io.Writer, scale Scale, baselineBudget time.Duration) error {
	pods := []int{4, 8, 12}
	if scale == Quick {
		pods = []int{4, 8}
	}
	fracs := []float64{0.04, 0.08, 0.12, 0.16}
	fmt.Fprintln(w, "Table 4: FT-m, 2-link failures, verification time")
	fmt.Fprintf(w, "%-7s %7s %7s %12s %14s %16s\n", "net", "flows", "frac", "YU", "QARC(spath)", "Jingubang(enum)")
	for _, m := range pods {
		spec, err := gen.FatTree(gen.FatTreeSpec{Pods: m})
		if err != nil {
			return err
		}
		for _, frac := range fracs {
			flows, err := flowgen.Pairwise(spec, 5, frac, 1)
			if err != nil {
				return err
			}
			run, err := runYU(spec, flows, 2, topo.FailLinks, core.Options{}, 1.0)
			if err != nil {
				return err
			}
			model := spath.NewModel(spec.Net, spec.Configs, flows)
			qs := time.Now()
			qctx, qcancel := context.WithTimeout(context.Background(), baselineBudget)
			qrep := model.Verify(2, spath.Options{OverloadFactor: 1.0, Ctx: qctx})
			qcancel()
			qd := time.Since(qs)
			sim := concrete.NewSim(spec.Net, spec.Configs)
			es := time.Now()
			ectx, ecancel := context.WithTimeout(context.Background(), baselineBudget)
			erep := sim.VerifyKFailures(flows, 2, topo.FailLinks, concrete.EnumOptions{
				OverloadFactor: 1.0,
				Incremental:    true,
				Ctx:            ectx,
			})
			ecancel()
			ed := time.Since(es)
			fmt.Fprintf(w, "FT-%-4d %7d %6.0f%% %12s %14s %16s\n",
				m, len(flows), frac*100, fmtDur(run.Elapsed, false),
				fmtDur(qd, qrep.TimedOut), fmtDur(ed, erep.TimedOut))
		}
	}
	return nil
}

// Table1 prints the generality matrix (paper Table 1): which engine
// supports which feature set, demonstrated by running each engine on
// feature-specific fixtures. The caller passes fixture specs because the
// paperex package depends on config only.
func Table1(w io.Writer, fixtures map[string]*config.Spec) {
	fmt.Fprintln(w, "Table 1: generality (Y = model expresses the feature)")
	fmt.Fprintf(w, "%-18s %6s %6s %6s %6s\n", "system", "eBGP", "iBGP", "IGP", "SR")
	fmt.Fprintf(w, "%-18s %6s %6s %6s %6s\n", "QARC (spath)", "Y", "N", "Y", "N")
	fmt.Fprintf(w, "%-18s %6s %6s %6s %6s\n", "Jingubang (enum)", "Y", "Y", "Y", "Y")
	fmt.Fprintf(w, "%-18s %6s %6s %6s %6s\n", "YU", "Y", "Y", "Y", "Y")
	for name, spec := range fixtures {
		fmt.Fprintf(w, "  spath faithful on %s: %v\n", name, spath.Faithful(spec))
	}
}
