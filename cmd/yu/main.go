// Command yu verifies traffic load properties of a network specification
// under arbitrary k-failure scenarios.
//
// Usage:
//
//	yu verify [-k N] [-mode links|routers|both] [-overload FACTOR]
//	          [-engine yu|enumerate|spath] [-no-kreduce] [-no-equiv]
//	          [-workers N] [-timeout D] [-max-nodes N]
//	          [-on-budget fail|degrade] [-domains spec|NAME:R1,R2;...]
//	          [-auto-domains N] [-stats] [-metrics json|text]
//	          [-cpuprofile FILE] [-memprofile FILE] [-trace FILE] spec.yu
//	yu show spec.yu
//
// The spec format is documented in the README (routers, links, config
// blocks, flows, properties, failures).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "verify":
		cmdVerify(os.Args[2:])
	case "show":
		cmdShow(os.Args[2:])
	case "dot":
		cmdDot(os.Args[2:])
	case "loads":
		cmdLoads(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: yu <command> [flags] spec.yu
  verify   check traffic load properties under k failures
  show     print the parsed specification
  dot      emit the topology as Graphviz DOT
  loads    simulate one concrete failure scenario and print link loads`)
	os.Exit(2)
}

// verifyConfig is the fully-validated result of parsing `yu verify`
// flags. Enumerated flags (-mode, -engine, -on-budget, -metrics) are
// validated at parse time via flag.Func, so a bad value is a usage
// error (exit 2) before the spec file is even opened.
type verifyConfig struct {
	k          int
	overload   float64
	noKReduce  bool
	noEquiv    bool
	workers    int
	timeout    time.Duration
	maxNodes   int
	stats      bool
	canon      bool
	mode       yu.FailureMode
	modeSet    bool
	engine     yu.Engine
	onBudget   yu.BudgetPolicy
	metrics    string // "", "json", or "text"
	domains    string // "", "spec", or "name:R1,R2;name2:R3,..."
	autoDoms   int
	cpuprofile string
	memprofile string
	traceFile  string
	tlpFile    string
	spec       string
}

// parseVerifyFlags parses and validates `yu verify` arguments. With
// flag.ExitOnError a bad flag value exits 2 inside fs.Parse; with
// flag.ContinueOnError (tests) the error is returned.
func parseVerifyFlags(args []string, eh flag.ErrorHandling) (*verifyConfig, error) {
	cfg := &verifyConfig{
		engine:   yu.EngineYU,
		onBudget: yu.BudgetFail,
	}
	fs := flag.NewFlagSet("verify", eh)
	fs.IntVar(&cfg.k, "k", 0, "failure budget (0 = use the spec's)")
	fs.Func("mode", "failure mode: links, routers, or both (default: spec's)", func(s string) error {
		switch s {
		case "links":
			cfg.mode = yu.FailLinks
		case "routers":
			cfg.mode = yu.FailRouters
		case "both":
			cfg.mode = yu.FailBoth
		default:
			return fmt.Errorf("must be links, routers, or both")
		}
		cfg.modeSet = true
		return nil
	})
	fs.Float64Var(&cfg.overload, "overload", 0, "check all links against FACTOR x capacity")
	fs.Func("engine", "engine: yu, enumerate, or spath (default yu)", func(s string) error {
		switch s {
		case "yu":
			cfg.engine = yu.EngineYU
		case "enumerate":
			cfg.engine = yu.EngineEnumerate
		case "spath":
			cfg.engine = yu.EngineShortestPath
		default:
			return fmt.Errorf("must be yu, enumerate, or spath")
		}
		return nil
	})
	fs.BoolVar(&cfg.noKReduce, "no-kreduce", false, "disable k-failure MTBDD reduction (ablation)")
	fs.BoolVar(&cfg.noEquiv, "no-equiv", false, "disable flow equivalence reductions (ablation)")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "parallel workers for the yu engine (1 = sequential)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "abort verification after this duration (0 = none)")
	fs.IntVar(&cfg.maxNodes, "max-nodes", 0, "live MTBDD node budget (0 = unlimited)")
	fs.Func("on-budget", "node-budget policy: fail (typed error) or degrade (concrete fallback) (default fail)", func(s string) error {
		switch s {
		case "fail":
			cfg.onBudget = yu.BudgetFail
		case "degrade":
			cfg.onBudget = yu.BudgetDegrade
		default:
			return fmt.Errorf("must be fail or degrade")
		}
		return nil
	})
	fs.BoolVar(&cfg.stats, "stats", false, "print per-link statistics")
	fs.BoolVar(&cfg.canon, "canon", false, "print the canonical report (byte-comparable across runs and with yud)")
	fs.Func("metrics", "emit run metrics to stderr: json or text", func(s string) error {
		switch s {
		case "json", "text":
			cfg.metrics = s
		default:
			return fmt.Errorf("must be json or text")
		}
		return nil
	})
	fs.StringVar(&cfg.domains, "domains", "", "compositional verification: 'spec' (use the spec's domain lines) or an explicit NAME:R1,R2;NAME2:R3,... partition (yu engine)")
	fs.IntVar(&cfg.autoDoms, "auto-domains", 0, "compositional verification: auto-partition into up to N AS-closed domains (yu engine)")
	fs.StringVar(&cfg.tlpFile, "tlp", "", "evaluate the TLP portfolio FILE with the batch engine instead of the spec's properties")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to FILE")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile to FILE at exit")
	fs.StringVar(&cfg.traceFile, "trace", "", "write a runtime execution trace to FILE")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		err := fmt.Errorf("verify: expected exactly one spec file, got %d arguments", fs.NArg())
		if eh == flag.ExitOnError {
			fmt.Fprintln(os.Stderr, "yu:", err)
			os.Exit(2)
		}
		return nil, err
	}
	cfg.spec = fs.Arg(0)
	return cfg, nil
}

func cmdVerify(args []string) {
	cfg, err := parseVerifyFlags(args, flag.ExitOnError)
	if err != nil {
		os.Exit(2) // unreachable with ExitOnError; kept for safety
	}
	// runVerify owns all defers (profile/trace stop, metrics emission)
	// so they run before the process exits.
	os.Exit(runVerify(cfg, os.Stdout, os.Stderr))
}

// runVerify executes one verification run and returns the process exit
// code. All cleanup — profile and trace stop functions, metrics
// emission — happens via defers inside this function, so callers can
// os.Exit with the returned code safely. Human-readable output goes to
// stdout; metrics, profiles being diagnostics, go to stderr, so
// `2>metrics.json` captures a parseable document.
func runVerify(cfg *verifyConfig, stdout, stderr io.Writer) (code int) {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "yu:", err)
		return 1
	}
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return fail(err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if cfg.memprofile != "" {
		defer func() {
			f, err := os.Create(cfg.memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "yu:", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "yu:", err)
				code = 1
			}
		}()
	}

	var reg *yu.Metrics
	if cfg.metrics != "" || cfg.stats {
		reg = yu.NewMetrics() // -stats prints the managers it records
	}
	if cfg.metrics != "" {
		// Deferred so the snapshot is emitted on every outcome —
		// VERIFIED, VIOLATED, and partial/INCOMPLETE runs alike.
		defer func() {
			snap := reg.Snapshot()
			var err error
			if cfg.metrics == "json" {
				err = snap.WriteJSON(stderr)
			} else {
				err = snap.WriteText(stderr)
			}
			if err != nil {
				fmt.Fprintln(stderr, "yu: writing metrics:", err)
				code = 1
			}
		}()
	}

	parseStart := time.Now()
	net, err := yu.LoadFile(cfg.spec)
	if err != nil {
		return fail(err)
	}
	reg.AddPhase("parse", time.Since(parseStart))

	opts := yu.VerifyOptions{
		K:                     cfg.k,
		OverloadFactor:        cfg.overload,
		DisableKReduce:        cfg.noKReduce,
		DisableLinkLocalEquiv: cfg.noEquiv,
		DisableGlobalEquiv:    cfg.noEquiv,
		Workers:               cfg.workers,
		MaxNodes:              cfg.maxNodes,
		OnBudget:              cfg.onBudget,
		Engine:                cfg.engine,
		Mode:                  cfg.mode,
		ModeSet:               cfg.modeSet,
		Obs:                   reg,
	}
	if cfg.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if cfg.domains != "" || cfg.autoDoms > 0 {
		if cfg.engine != yu.EngineYU {
			return fail(errors.New("-domains/-auto-domains require the yu engine"))
		}
		switch {
		case cfg.domains == "spec":
			if len(net.Spec().Domains) == 0 {
				return fail(errors.New("-domains spec: the spec declares no domain lines"))
			}
			opts.Domains = net.Spec().Domains
		case cfg.domains != "":
			doms, derr := parseDomainsFlag(cfg.domains)
			if derr != nil {
				return fail(fmt.Errorf("-domains: %w", derr))
			}
			opts.Domains = doms
		default:
			opts.AutoDomains = cfg.autoDoms
		}
	}
	if cfg.tlpFile != "" {
		// Portfolio mode: the batch TLP engine evaluates the portfolio
		// file from one symbolic run and prints the canonical report.
		if cfg.engine != yu.EngineYU {
			return fail(errors.New("-tlp requires the yu engine"))
		}
		f, err := os.Open(cfg.tlpFile)
		if err != nil {
			return fail(err)
		}
		props, perr := config.ParsePortfolio(f, net.Topology())
		f.Close()
		if perr != nil {
			return fail(fmt.Errorf("%s: %w", cfg.tlpFile, perr))
		}
		res, err := net.VerifyPortfolio(props, opts)
		if err != nil && res == nil {
			return fail(err)
		}
		io.WriteString(stdout, canon.FormatPortfolio(net.Topology(), res))
		if err != nil {
			fmt.Fprintln(stderr, "yu:", err)
		}
		if err != nil || !res.Holds {
			return 1
		}
		return code
	}
	rep, err := net.Verify(opts)
	if err != nil && rep == nil {
		return fail(err)
	}
	topoN := net.Topology()
	if cfg.canon {
		// Canonical rendering only: the byte-identity surface shared
		// with the daemon's /v1/report (used by the CI cold-diff).
		io.WriteString(stdout, canon.FormatReport(topoN, rep))
		if err != nil || !rep.Holds {
			return 1
		}
		return code
	}
	switch {
	case err != nil:
		// Governance cut the run short: report what was checked before
		// the interruption, then the typed cause.
		fmt.Fprintf(stdout, "INCOMPLETE: verification interrupted (%v)\n", rep.Elapsed)
		if len(rep.Violations) > 0 {
			fmt.Fprintf(stdout, "  %d violation(s) found before interruption:\n", len(rep.Violations))
			for _, v := range rep.Violations {
				fmt.Fprintln(stdout, "    "+v.Describe(topoN))
			}
		}
		if n := len(rep.Unchecked) + len(rep.UncheckedDelivered); n > 0 {
			fmt.Fprintf(stdout, "  %d propert%s left unchecked\n", n, plural(n, "y", "ies"))
		}
		switch {
		case errors.Is(err, yu.ErrDeadline):
			fmt.Fprintln(stdout, "  cause: deadline exceeded (-timeout)")
		case errors.Is(err, yu.ErrCanceled):
			fmt.Fprintln(stdout, "  cause: canceled")
		case errors.Is(err, yu.ErrNodeBudget):
			fmt.Fprintf(stdout, "  cause: %v (rerun with a larger -max-nodes or -on-budget=degrade)\n", err)
		default:
			fmt.Fprintf(stdout, "  cause: %v\n", err)
		}
	case rep.Holds:
		fmt.Fprintf(stdout, "VERIFIED: all properties hold under the failure budget (%v)\n", rep.Elapsed)
	default:
		fmt.Fprintf(stdout, "VIOLATED: %d violation(s) found (%v)\n", len(rep.Violations), rep.Elapsed)
		for _, v := range rep.Violations {
			fmt.Fprintln(stdout, "  "+v.Describe(topoN))
		}
	}
	if n := len(rep.DegradedFlows); n > 0 {
		fmt.Fprintf(stdout, "note: %d flow(s) verified by bounded concrete enumeration (node budget)\n", n)
	}
	if cfg.stats {
		fmt.Fprintf(stdout, "flows: %d input, %d executed\n", rep.FlowsTotal, rep.FlowsExecuted)
		if m := rep.Modular; m != nil {
			fmt.Fprintf(stdout, "modular: %d domains, %d border links, %d rounds\n",
				m.Domains, m.BorderLinks, m.Rounds)
			fmt.Fprintf(stdout, "  classes: %d contained, %d fallback; domain peak nodes: %d\n",
				m.ContainedClasses, m.FallbackClasses, m.DomainPeakNodes)
		}
		for _, f := range rep.DegradedFlows {
			fmt.Fprintf(stdout, "  degraded to concrete enumeration: %s\n", f)
		}
		if len(rep.Unchecked) > 0 {
			fmt.Fprintf(stdout, "unchecked links: %d\n", len(rep.Unchecked))
		}
		if len(rep.UncheckedDelivered) > 0 {
			fmt.Fprintf(stdout, "unchecked delivered bounds: %d\n", len(rep.UncheckedDelivered))
		}
		if rep.MTBDDNodes > 0 {
			fmt.Fprintf(stdout, "MTBDD nodes: %d\n", rep.MTBDDNodes)
		}
		snap := reg.Snapshot()
		for _, m := range snap.Managers {
			fmt.Fprintf(stdout, "  manager %-16s peak %d nodes, tables %.1f MB\n",
				m.Name, m.PeakLive, float64(m.CacheBytes)/(1<<20))
		}
		printRouteSim(stdout, snap)
		printExecute(stdout, snap)
		printWorkers(stdout, snap)
		printCheck(stdout, snap)
		if rep.Scenarios > 0 {
			fmt.Fprintf(stdout, "scenarios simulated: %d\n", rep.Scenarios)
		}
		if len(rep.LinkStats) > 0 {
			sort.Slice(rep.LinkStats, func(i, j int) bool {
				return rep.LinkStats[i].Elapsed > rep.LinkStats[j].Elapsed
			})
			n := len(rep.LinkStats)
			if n > 10 {
				n = 10
			}
			fmt.Fprintln(stdout, "slowest checks:")
			for _, s := range rep.LinkStats[:n] {
				name := topoN.DirLinkName(s.Link)
				if s.Kind == "delivered" {
					name = "delivered " + s.Prefix.String()
				}
				fmt.Fprintf(stdout, "  %-24s flows=%-6d classes=%-5d %v\n",
					name, s.Flows, s.Classes, s.Elapsed)
			}
		}
	}
	if err != nil || !rep.Holds {
		return 1
	}
	return code
}

// printRouteSim renders the route-simulation breakdown of a run's metrics
// (on a compositional run: summed over the domains). Runs that simulate
// no routes symbolically (the baselines) print nothing.
func printRouteSim(w io.Writer, snap *yu.MetricsSnapshot) {
	ms := map[string]float64{}
	for _, p := range snap.Phases {
		ms[p.Path] = p.MS
	}
	if _, ok := ms["routesim/igp"]; !ok {
		return
	}
	c := snap.Counters
	fmt.Fprintf(w, "route-sim: igp %.1fms (%d levels built, %d pruned), bgp %.1fms (%d rounds, %d evaluations of %d RIB entries, %d templates, %d AS paths), finish %.1fms\n",
		ms["routesim/igp"], c["routesim.igp_levels"], c["routesim.igp_pruned"],
		ms["routesim/bgp"], c["routesim.bgp_rounds"], c["routesim.bgp_recomputed"], c["routesim.bgp_entries"],
		c["routesim.templates_rebuilt"], c["routesim.as_paths"], ms["routesim/finish"])
}

// printExecute renders the execution stage's own account of a run: how many
// global-equivalence classes a symbolic execution built an STF for and how
// many took the STF of an earlier class with the same behaviour, how many
// forwarding classes the destination prefixes fall into, and how often a
// forwarding step was built rather than found. On a multi-worker run every
// worker's engine classifies prefixes and builds steps of its own, so the
// last four numbers sum over workers. Runs that execute nothing symbolically
// print nothing.
func printExecute(w io.Writer, snap *yu.MetricsSnapshot) {
	c := snap.Counters
	executed, shared := c["exec.flows_executed"], c["exec.classes_shared"]
	if executed+shared == 0 {
		return
	}
	fmt.Fprintf(w, "execute: %d classes: %d executed, %d shared; %d forwarding classes over %d prefixes; %d steps built, %d shared\n",
		executed+shared, executed, shared, c["exec.forwarding_classes"], c["exec.prefixes"],
		c["exec.steps_built"], c["exec.steps_shared"])
}

// printWorkers renders what a multi-worker run's shard pool did: the
// goroutines execution spawned and the class-order chunks they took off the
// cursor, the share of the execute stage each spent executing, how many
// finished classes the primary manager imported from them, and how many
// checks each check shard ran. A run that spawned one worker or none prints
// nothing.
func printWorkers(w io.Writer, snap *yu.MetricsSnapshot) {
	c := snap.Counters
	spawned := int(c["sched.workers_spawned"])
	if spawned <= 1 {
		return
	}
	execMS := 0.0
	for _, p := range snap.Phases {
		if p.Path == "execute" {
			execMS = p.MS
		}
	}
	var busy, checked []string
	for i := 0; i < spawned; i++ {
		busy = append(busy, fmt.Sprintf("%.0f%%", 100*snap.TimersMS[fmt.Sprintf("worker.%d.busy", i)].MS/execMS))
	}
	for i := 0; ; i++ {
		n, ok := c[fmt.Sprintf("worker.%d.links_checked", i)]
		if !ok {
			break
		}
		checked = append(checked, fmt.Sprint(n))
	}
	if checked == nil {
		checked = []string{"none"}
	}
	fmt.Fprintf(w, "workers: %d spawned, %d chunks; busy %s of execute; %d classes imported; links checked per shard %s\n",
		spawned, c["sched.chunks"], strings.Join(busy, " "), c["exec.classes_imported"], strings.Join(checked, " "))
}

// printCheck renders the check stage's own account of a run: how many loads
// the quick bound passed without enumerating anything, how many the prefix
// maxima settled without building a node, how many were built and scanned,
// and what share of the classes ever entered a kernel walk — why the check
// cost what it cost. Runs that check nothing symbolically print nothing.
func printCheck(w io.Writer, snap *yu.MetricsSnapshot) {
	c := snap.Counters
	bounded, decided, built := c["check.links_bounded"], c["check.links_decided"], c["check.links_built"]
	if bounded+decided+built == 0 {
		return
	}
	fmt.Fprintf(w, "check: %d loads: %d within the quick bound, %d settled by prefix maxima, %d built and scanned; %d of %d classes enumerated, aggregation %.1fms\n",
		bounded+decided+built, bounded, decided, built,
		c["check.classes_enumerated"], c["check.classes_total"], snap.TimersMS["check/kreduce"].MS)
}

// parseDomainsFlag parses the explicit -domains partition syntax:
// semicolon-separated domains, each NAME:R1,R2,... Validation of the
// partition itself (coverage, AS-closure) happens inside Verify.
func parseDomainsFlag(s string) (map[string][]string, error) {
	doms := make(map[string][]string)
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, routers, ok := strings.Cut(part, ":")
		if !ok || name == "" || routers == "" {
			return nil, fmt.Errorf("bad domain %q, want NAME:R1,R2,...", part)
		}
		if _, dup := doms[name]; dup {
			return nil, fmt.Errorf("duplicate domain %q", name)
		}
		var rs []string
		for _, r := range strings.Split(routers, ",") {
			if r = strings.TrimSpace(r); r != "" {
				rs = append(rs, r)
			}
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("domain %q names no routers", name)
		}
		doms[name] = rs
	}
	if len(doms) == 0 {
		return nil, fmt.Errorf("no domains in %q", s)
	}
	return doms, nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func cmdShow(args []string) {
	if len(args) != 1 {
		usage()
	}
	net, err := yu.LoadFile(args[0])
	if err != nil {
		fatal(err)
	}
	spec := net.Spec()
	t := spec.Net
	fmt.Printf("routers: %d, links: %d, ASes: %v\n", t.NumRouters(), t.NumLinks(), t.ASes())
	for _, r := range t.Routers {
		fmt.Printf("  %-10s AS %-6d loopback %s\n", r.Name, r.AS, r.Loopback)
	}
	for i := range t.Links {
		l := t.Link(topo.LinkID(i))
		fmt.Printf("  link %-12s cost %d/%d capacity %g\n",
			t.LinkName(l.ID), l.CostAB, l.CostBA, l.Capacity)
	}
	fmt.Printf("flows: %d\n", len(spec.Flows))
	for _, f := range spec.Flows {
		fmt.Printf("  %s enters at %s\n", f, t.Router(f.Ingress).Name)
	}
	fmt.Printf("properties: %d link bounds, %d delivered bounds; failures k=%d mode=%s\n",
		len(spec.Props), len(spec.Delivered), spec.K, spec.Mode)
}

// cmdDot emits the topology as Graphviz DOT, annotating links with cost
// and capacity.
func cmdDot(args []string) {
	if len(args) != 1 {
		usage()
	}
	net, err := yu.LoadFile(args[0])
	if err != nil {
		fatal(err)
	}
	t := net.Topology()
	fmt.Println("graph network {")
	fmt.Println("  layout=neato; overlap=false; splines=true;")
	for _, r := range t.Routers {
		fmt.Printf("  %q [label=\"%s\\nAS %d\"];\n", r.Name, r.Name, r.AS)
	}
	for i := range t.Links {
		l := t.Link(topo.LinkID(i))
		fmt.Printf("  %q -- %q [label=\"%g G\"];\n",
			t.Router(l.A).Name, t.Router(l.B).Name, l.Capacity)
	}
	fmt.Println("}")
}

// cmdLoads simulates a single concrete failure scenario with the
// Jingubang-style simulator and prints nonzero link loads — the tool a
// network operator reaches for when analyzing a witness scenario.
func cmdLoads(args []string) {
	fs := flag.NewFlagSet("loads", flag.ExitOnError)
	fail := fs.String("fail", "", "comma-separated failed links (A-B,C-D) and routers (X)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		usage()
	}
	net, err := yu.LoadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	spec := net.Spec()
	t := spec.Net
	sc := concrete.NewScenario(t)
	if *fail != "" {
		for _, name := range strings.Split(*fail, ",") {
			if i := strings.IndexByte(name, '-'); i >= 0 {
				l, ok := t.FindLink(name[:i], name[i+1:])
				if !ok {
					fatal(fmt.Errorf("no link %q", name))
				}
				sc.LinkDown[l.ID] = true
			} else {
				r, ok := t.RouterByName(name)
				if !ok {
					fatal(fmt.Errorf("no router %q", name))
				}
				sc.RouterDown[r.ID] = true
			}
		}
	}
	sim := concrete.NewSim(t, spec.Configs)
	res := sim.Simulate(sc, spec.Flows)
	type row struct {
		name string
		load float64
		cap  float64
	}
	var rows []row
	for li := range t.Links {
		l := t.Link(topo.LinkID(li))
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			dl := topo.MakeDirLinkID(l.ID, d)
			if v := res.Load[dl]; v > 1e-9 {
				rows = append(rows, row{t.DirLinkName(dl), v, l.Capacity})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].load > rows[j].load })
	for _, r := range rows {
		marker := ""
		if r.load > r.cap {
			marker = "  << OVERLOAD"
		}
		fmt.Printf("%-24s %10.3f / %g Gbps%s\n", r.name, r.load, r.cap, marker)
	}
	var delivered, dropped float64
	for fi := range spec.Flows {
		delivered += res.Delivered[fi]
		dropped += res.Dropped[fi]
	}
	fmt.Printf("delivered %.3f Gbps, dropped %.3f Gbps\n", delivered, dropped)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yu:", err)
	os.Exit(1)
}
