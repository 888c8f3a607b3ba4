// The paper's evaluation (§7): one case table, and one benchmark whose
// sub-benchmarks are the cells of its tables and figures. A cell is one
// yu.Network.Verify call — the baselines are engines of the same API —
// under a fixed budget, reporting the paper's axes as metrics:
//
//	go test -run '^$' -bench Paper -benchtime 1x -timeout 0 .
//	go test -run '^$' -bench 'Paper/Fig11/N0/k=[12]/' -benchtime 1x .
package yu_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/spath"
)

// budgets is what a cell runs under. A cell that passes one still prints
// its row, with stopped=1, and logs the stage it stopped in.
type budgets struct {
	baseline, yu time.Duration
	yuNodes      int
}

var limits = budgets{baseline: 60 * time.Second, yu: 10 * time.Minute, yuNodes: 20_000_000}

// rung is one network of the Fig 11/12/13/17 ladder: a generated WAN, the
// size of its random workload, and the failure budgets it is verified at.
type rung struct {
	name  string
	ws    gen.WANSpec
	flows int
	ks    []int
}

// ladder is Table 3's networks with Fig 11's failure budgets. Flow counts
// are scaled from the paper's 10^7–10^9: execution cost follows distinct
// behaviours, not raw counts (Fig 12).
var ladder = []rung{
	{"N0", gen.WANSpec{Routers: 100, Links: 200, Prefixes: 60, SRPolicyFraction: 0.1, Seed: 10}, 5000, []int{1, 2, 3, 4}},
	{"N1", gen.WANSpec{Routers: 200, Links: 500, Prefixes: 100, SRPolicyFraction: 0.1, Seed: 11}, 10000, []int{1, 2, 3}},
	{"N2", gen.WANSpec{Routers: 500, Links: 2500, Prefixes: 120, SRPolicyFraction: 0.1, Seed: 12}, 20000, []int{1, 2}},
	{"WAN", gen.WANSpec{Routers: 1000, Links: 4000, Prefixes: 150, SRPolicyFraction: 0.1, Seed: 13}, 20000, []int{1, 2}},
}

// input generates the rung's network carrying n of its random flows.
func (r rung) input(n int) func() (*yu.Spec, error) {
	return func() (*yu.Spec, error) {
		spec, err := gen.WAN(r.ws)
		if err == nil {
			spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{
				Count: n, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: r.ws.Seed + 100})
		}
		return spec, err
	}
}

// fatTree generates FT-pods carrying the given fraction of its pairwise
// 5 Gbps edge-to-edge flows.
func fatTree(pods int, frac float64) func() (*yu.Spec, error) {
	return func() (*yu.Spec, error) {
		spec, err := gen.FatTree(gen.FatTreeSpec{Pods: pods})
		if err == nil {
			spec.Flows, err = flowgen.Pairwise(spec, 5, frac, 1)
		}
		return spec, err
	}
}

// capacityBounds adds an explicit capacity bound on every link. Explicit
// bounds are never pruned, so verifying the spec with no overload factor
// builds and scans every link's load: the §6-free check of Figs 13 and 14.
func capacityBounds(build func() (*yu.Spec, error)) func() (*yu.Spec, error) {
	return func() (*yu.Spec, error) {
		spec, err := build()
		for i := 0; err == nil && i < spec.Net.NumLinks(); i++ {
			spec.Props = append(spec.Props, yu.LoadBound{Link: spec.Net.Links[i].ID, Max: spec.Net.Links[i].Capacity})
		}
		return spec, err
	}
}

// cell is one point of a table or figure: an input and the options of the
// one Verify call that measures it.
type cell struct {
	name  string // sub-benchmark name: figure/input/variant
	build func() (*yu.Spec, error)
	opts  yu.VerifyOptions
}

// The engines a cell runs: the paper's, and its two baselines.
var (
	yuEngine  = yu.VerifyOptions{OverloadFactor: 1}
	jingubang = yu.VerifyOptions{Engine: yu.EngineEnumerate, Incremental: true, OverloadFactor: 1}
	qarc      = yu.VerifyOptions{Engine: yu.EngineShortestPath, OverloadFactor: 1}
)

// paperCells is the case table: every cell of §7, in the order the paper
// presents them. Inputs are generated per cell: it takes milliseconds.
func paperCells() []cell {
	var cells []cell
	add := func(name string, build func() (*yu.Spec, error), opts yu.VerifyOptions, k int, mode yu.FailureMode) {
		opts.K, opts.Mode, opts.ModeSet = k, mode, true
		cells = append(cells, cell{name, build, opts})
	}
	ladderFig := func(fig string, mode yu.FailureMode) {
		for _, r := range ladder {
			for _, k := range r.ks {
				name := fmt.Sprintf("%s/%s/k=%d/", fig, r.name, k)
				add(name+"YU", r.input(r.flows), yuEngine, k, mode)
				if r.name == "N0" && k <= 2 { // where the paper, too, could run it
					add(name+"Jingubang", r.input(r.flows), jingubang, k, mode)
				}
			}
		}
	}
	ladderFig("Fig11", yu.FailLinks)
	n0 := ladder[0]
	for _, mode := range []yu.FailureMode{yu.FailLinks, yu.FailRouters} {
		for _, k := range []int{1, 2} {
			for _, n := range []int{n0.flows / 8, n0.flows / 4, n0.flows / 2, n0.flows} {
				add(fmt.Sprintf("Fig12/%s/k=%d/flows=%d/YU", mode, k, n), n0.input(n), yuEngine, k, mode)
			}
		}
	}
	bounded := capacityBounds(n0.input(n0.flows))
	add("Fig13/with-equiv/YU", bounded, yu.VerifyOptions{}, 1, yu.FailLinks)
	add("Fig13/without-equiv/YU", bounded,
		yu.VerifyOptions{DisableLinkLocalEquiv: true, DisableGlobalEquiv: true}, 1, yu.FailLinks)
	noKReduce := yuEngine
	noKReduce.DisableKReduce = true
	for _, n := range []int{2, 9, 21} {
		name, build := fmt.Sprintf("Fig15/flows=%d/", n), fatTree(4, float64(n)/56)
		add(name+"YU", build, yuEngine, 2, yu.FailLinks)
		add(name+"YU-no-KREDUCE", build, noKReduce, 2, yu.FailLinks)
		add(name+"QARC", build, qarc, 2, yu.FailLinks)
	}
	ladderFig("Fig17", yu.FailRouters)
	for _, pods := range []int{4, 8, 12} {
		for _, pct := range []int{4, 8, 12, 16} {
			name, build := fmt.Sprintf("Table4/FT-%d/%dpct/", pods, pct), fatTree(pods, float64(pct)/100)
			add(name+"YU", build, yuEngine, 2, yu.FailLinks)
			add(name+"QARC", build, qarc, 2, yu.FailLinks)
			add(name+"Jingubang", build, jingubang, 2, yu.FailLinks)
		}
	}
	return cells
}

func (c cell) spec(tb testing.TB) *yu.Spec {
	tb.Helper()
	spec, err := c.build()
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// result is what one cell measured.
type result struct {
	rep       *yu.Report
	peakNodes int                // the primary manager's peak live nodes, Fig 16's metric
	seconds   map[string]float64 // the run's phases by path
	stopped   string             // the stage a governed stop cut short; "" if the run finished
}

// run makes the cell's Verify call under its budget.
func (c cell) run(tb testing.TB, spec *yu.Spec) result {
	tb.Helper()
	opts := c.opts
	budget := limits.baseline
	if opts.Engine == yu.EngineYU {
		budget, opts.MaxNodes = limits.yu, limits.yuNodes
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	opts.Ctx, opts.Obs = ctx, yu.NewMetrics()
	rep, err := yu.FromSpec(spec).Verify(opts)
	if err != nil && !errors.Is(err, yu.ErrDeadline) && !errors.Is(err, yu.ErrNodeBudget) {
		tb.Fatal(err)
	}
	res := result{rep: rep, seconds: map[string]float64{}}
	snap := opts.Obs.Snapshot()
	for _, p := range snap.Phases {
		res.seconds[p.Path] = p.MS / 1000
	}
	for _, m := range snap.Managers {
		if m.Name == "primary" {
			res.peakNodes = m.PeakLive
		}
	}
	// A stop names its stage from the run's own record: a YU run that never
	// opened its execute phase stopped in route simulation, one that
	// finished fewer classes than it had in execution, any other in the check.
	_, executed := res.seconds["execute"]
	switch {
	case err == nil:
	case opts.Engine == yu.EngineEnumerate:
		res.stopped = "enumerate"
	case opts.Engine == yu.EngineShortestPath:
		res.stopped = "search"
	case !executed:
		res.stopped = "route-sim"
	case rep.FlowsExecuted < rep.Sched.Classes:
		res.stopped = "execute"
	default:
		res.stopped = "check"
	}
	return res
}

// BenchmarkPaper runs the cells -bench selects; `go test ./...` runs none.
func BenchmarkPaper(b *testing.B) {
	for _, c := range paperCells() {
		b.Run(c.name, func(b *testing.B) {
			spec := c.spec(b)
			b.ResetTimer()
			var res result
			for i := 0; i < b.N; i++ {
				res = c.run(b, spec)
			}
			rep, stopped := res.rep, 0.0
			if res.stopped != "" {
				stopped = 1
				b.Logf("> budget: stopped in %s after %s", res.stopped, rep.Elapsed.Round(time.Second))
			}
			b.ReportMetric(float64(len(rep.Violations)), "violations")
			b.ReportMetric(float64(res.peakNodes), "peak-nodes")
			b.ReportMetric(float64(rep.FlowsExecuted), "classes")
			b.ReportMetric(float64(rep.Scenarios), "scenarios")
			b.ReportMetric(res.seconds["routesim"], "routesim-s")
			b.ReportMetric(res.seconds["execute"], "execute-s")
			b.ReportMetric(res.seconds["check"], "check-s")
			b.ReportMetric(stopped, "stopped")
			if !strings.HasPrefix(c.name, "Fig13/") {
				return
			}
			// Figs 13 and 14: per-link check time and aggregated classes.
			var ms, classes []float64
			for _, s := range rep.LinkStats {
				if s.Flows > 0 {
					ms = append(ms, float64(s.Elapsed.Microseconds())/1000)
					classes = append(classes, float64(s.Classes))
				}
			}
			sort.Float64s(ms)
			sort.Float64s(classes)
			for i, p := range []float64{0.5, 0.9, 0.99, 1} {
				q, at := []string{"p50", "p90", "p99", "max"}[i], int(p*float64(len(ms)-1))
				b.ReportMetric(ms[at], "link-ms-"+q)
				b.ReportMetric(classes[at], "link-classes-"+q)
			}
		})
	}
}

// findCell is the case table's cell of the given name.
func findCell(tb testing.TB, name string) cell {
	tb.Helper()
	for _, c := range paperCells() {
		if c.name == name {
			return c
		}
	}
	tb.Fatalf("no paper cell %s", name)
	return cell{}
}

// TestFig15Tiny runs Fig 15/16's smallest point through the harness and
// checks Fig 16's claim there: KREDUCE keeps the MTBDDs far smaller.
func TestFig15Tiny(t *testing.T) {
	with, without := findCell(t, "Fig15/flows=2/YU"), findCell(t, "Fig15/flows=2/YU-no-KREDUCE")
	a, b := with.run(t, with.spec(t)), without.run(t, without.spec(t))
	if a.stopped != "" || b.stopped != "" {
		t.Fatalf("stopped: %q, %q", a.stopped, b.stopped)
	}
	if a.peakNodes == 0 || a.peakNodes >= b.peakNodes {
		t.Errorf("peak nodes with KREDUCE %d, without %d: want fewer with", a.peakNodes, b.peakNodes)
	}
}

// TestPaperStopsNameTheirStage: a cell past its budget still has its
// report, and names the stage it stopped in.
func TestPaperStopsNameTheirStage(t *testing.T) {
	saved := limits
	defer func() { limits = saved }()
	for _, tc := range []struct {
		cell, want string
		limits     budgets
	}{
		{"Fig15/flows=21/YU", "route-sim", budgets{time.Minute, time.Nanosecond, 0}},
		{"Fig15/flows=21/YU", "execute", budgets{time.Minute, time.Minute, 3500}},
		{"Fig15/flows=21/QARC", "search", budgets{time.Nanosecond, time.Minute, 0}},
		{"Table4/FT-4/4pct/Jingubang", "enumerate", budgets{time.Nanosecond, time.Minute, 0}},
	} {
		limits = tc.limits
		c := findCell(t, tc.cell)
		if res := c.run(t, c.spec(t)); res.stopped != tc.want || res.rep == nil {
			t.Errorf("%s: stopped in %q (report %v), want %q", tc.cell, res.stopped, res.rep != nil, tc.want)
		}
	}
}

// TestTable1 checks the generality matrix's QARC row: the shortest-path
// model cannot express Fig 1's SR and iBGP, and can express a fat tree's
// eBGP.
func TestTable1(t *testing.T) {
	if spath.Faithful((cell{build: paperex.MotivatingSpec}).spec(t)) {
		t.Error("spath claims to model the motivating example's SR and iBGP")
	}
	if !spath.Faithful(findCell(t, "Table4/FT-4/4pct/YU").spec(t)) {
		t.Error("spath does not model an eBGP fat tree")
	}
}

// TestTable3QuickShape generates every ladder network and checks it has
// the size the ladder names (Table 3's columns).
func TestTable3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full ladder")
	}
	for _, r := range ladder {
		spec := (cell{build: r.input(r.flows)}).spec(t)
		t.Logf("%-4s %5d routers %5d links %4d prefixes %6d flows", r.name, spec.Net.NumRouters(), spec.Net.NumLinks(), len(gen.Prefixes(spec)), len(spec.Flows))
		if spec.Net.NumRouters() != r.ws.Routers || len(spec.Flows) != r.flows {
			t.Errorf("%s: %d routers, %d flows; want %d, %d", r.name, spec.Net.NumRouters(), len(spec.Flows), r.ws.Routers, r.flows)
		}
	}
}

// TestWANCasesLadder: the ladder grows network by network, and each rung
// goes to Fig 11's failure budget.
func TestWANCasesLadder(t *testing.T) {
	for i, r := range ladder {
		if i > 0 && (r.ws.Routers <= ladder[i-1].ws.Routers || r.ws.Links <= ladder[i-1].ws.Links) {
			t.Errorf("%s is no larger than %s", r.name, ladder[i-1].name)
		}
		if maxK := []int{4, 3, 2, 2}[i]; r.ks[len(r.ks)-1] != maxK {
			t.Errorf("%s stops at k = %d, want %d", r.name, r.ks[len(r.ks)-1], maxK)
		}
	}
}
