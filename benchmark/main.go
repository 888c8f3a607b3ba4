// Command benchmark is the repository's one benchmark (BENCHMARK.json):
// six named workloads, end-to-end time-to-verdict numbers taken untraced
// through the public user path, and per-layer numbers taken from one
// extra traced iteration in which the benchmark's own staged drivers time
// the calls into each layer's public functions. README.md says why each
// workload and metric exists.
//
//	go run ./benchmark -workload wan-k2 [-seed 10] [-seconds 10] [-trace 0|1|2]
//	go run ./benchmark -compare OLD.jsonl NEW.jsonl
//	go run ./benchmark -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/obs"
)

// Trace modes: what the driver asks for with --trace 0 and --trace 1,
// and both in one process for a person at a terminal.
const (
	traceOff  = 0 // untraced timed iterations → end-to-end metrics
	traceOnly = 1 // one traced iteration → per-layer metrics
	traceBoth = 2
)

// Set-up is repeated to report a median: for setupFor, and between
// setupMinRuns and setupMaxRuns times. A set-up is milliseconds, and in a
// process's first tenths of a second the collector is still finding its
// pace, so a fixed small count gave medians that moved 20% between runs.
const (
	setupMinRuns = 9
	setupMaxRuns = 200
	setupFor     = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "drives every random draw: flows, portfolio, delta mix, witness sample")
	seconds := fs.Float64("seconds", 0, "how long to keep taking timed iterations (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", traceBoth, "0: end-to-end metrics from untraced iterations; 1: per-layer metrics from one traced iteration; 2: both")
	out := fs.String("out", "", "append this run's record to a JSON-lines file (input of -compare)")
	update := fs.Bool("update-golden", false, "record this run's output digests as the golden ones")
	compare := fs.Bool("compare", false, "compare two record files: -compare OLD NEW")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice (A/A) and fail on disagreement beyond the bounds")
	runs := fs.Int("runs", 3, "runs per workload and side for -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: usage: -compare OLD NEW")
			return 2
		}
		regressed, err := compareFiles(stdout, man, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	case *selfcheck:
		if err := selfCheck(stdout, stderr, man, *seed, *seconds, *runs); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace < traceOff || *trace > traceBoth {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0, 1 or 2")
		return 2
	}
	if *update && *trace == traceOnly {
		fmt.Fprintln(stderr, "benchmark: -update-golden needs the untraced iterations (-trace 0 or 2): they visit every input")
		return 2
	}
	cfg := &runConfig{
		name: w.name, sh: w.shape, seed: *seed, seconds: *seconds, trace: *trace,
		dir: man.benchDir(), golden: *seed == defaultSeed && !*update, updateGolden: *update, log: stdout,
	}
	rec, err := cfg.run(man)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Host     hostInfo       `json:"host"`
	Samples  map[string]int `json:"samples"`
	result
}

// hostInfo is echoed with every run: numbers from different core counts
// or toolchains are not comparable, and the record should say so itself.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// StealS is the CPU time the hypervisor withheld from this guest
	// during the run, summed over CPUs: a run with seconds of it measured
	// the host, not the program.
	StealS float64 `json:"steal_s"`
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stealSeconds reads the guest-wide steal time from /proc/stat (0 where
// there is none to read).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100 // USER_HZ
	}
	return 0
}

// cpuSeconds is the CPU time this process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // stopwatch then takes the operation for single-threaded
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stopwatch times one end-to-end operation as the time the guest's CPUs
// were really there for it: wall time minus the hypervisor steal that
// fell on the operation's critical path. On this class of sandbox the
// host withholds the vCPUs for seconds at a time (a 4 s verify reads 7 s
// with 5 s of steal), and a regression bound cannot be read through that.
// /proc/stat sums steal over the CPUs, and only a CPU with something to
// run is stolen from, so the sum is divided by how many threads the
// operation kept busy (its CPU time over its wall time, between 1 and the
// CPU count): a one-worker verify is charged nearly all of it, a
// two-worker one about half. Dividing by the CPU count instead, as a first
// version did, leaves three quarters of the steal in a single-threaded
// timing on a 4-CPU guest. Without steal the result is plain wall time.
// Two guards: the counter ticks in 10 ms, so operations under 100 ms are
// left alone, and an operation is never credited more than half its wall
// time — a host that took more than that has not measured anything.
type stopwatch struct {
	start      time.Time
	steal, cpu float64
}

func startWatch() stopwatch {
	return stopwatch{start: time.Now(), steal: stealSeconds(), cpu: cpuSeconds()}
}

func (w stopwatch) elapsed() time.Duration {
	wall := time.Since(w.start)
	return wall - time.Duration(w.stolenShare(wall)*float64(wall))
}

// stolenShare is the part of the interval since start (wall long) that
// the hypervisor withheld from the operation, within the guards above.
func (w stopwatch) stolenShare(wall time.Duration) float64 {
	if wall < 100*time.Millisecond {
		return 0
	}
	threads := min(max((cpuSeconds()-w.cpu)/wall.Seconds(), 1), float64(runtime.NumCPU()))
	stolen := (stealSeconds() - w.steal) / threads
	return min(stolen/wall.Seconds(), 0.5)
}

// gitCommit asks git for HEAD; the driver's checkout is not a
// repository, where the answer is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runConfig is one workload run.
type runConfig struct {
	name         string
	sh           shape
	seed         int64
	seconds      float64
	trace        int
	dir          string // the benchmark directory: golden/ and out/ live here
	golden       bool   // gate outputs on the recorded digests
	updateGolden bool
	log          io.Writer

	gate    gate
	gold    *golden
	metrics map[string]float64
	samples map[string]int
}

func (c *runConfig) outDir() string { return filepath.Join(c.dir, "out") }

func (c *runConfig) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// run executes the workload and assembles the record: every end-to-end
// metric of the manifest for the untraced part, every per-layer metric
// for the traced part (zero where the layer does not run).
func (c *runConfig) run(man *manifest) (*record, error) {
	c.metrics = make(map[string]float64)
	c.samples = make(map[string]int)
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: effectiveWorkers(c.sh),
		GoVersion: runtime.Version(), Commit: gitCommit()}
	c.logf("workload %s seed %d seconds %g trace %d", c.name, c.seed, c.seconds, c.trace)
	c.logf("host nproc %d GOMAXPROCS %d workers %d %s commit %s", host.NProc, host.GOMAXPROCS, host.Workers, host.GoVersion, host.Commit)

	stealBefore := stealSeconds()
	var err error
	c.gold, err = loadGolden(c.dir, c.name, c.golden)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if c.sh.pipe == pipeDaemon {
		err = c.runDaemon()
	} else {
		err = c.runBatch()
	}
	if err != nil {
		return nil, err
	}
	if c.updateGolden {
		if err := c.gold.write(); err != nil {
			return nil, err
		}
		c.logf("golden digests written to %s", c.gold.path)
	}
	c.metrics["failed_share"] = c.gate.share()
	host.StealS = stealSeconds() - stealBefore

	rec := &record{Workload: c.name, Seed: c.seed, Trace: c.trace, Host: host, Samples: c.samples}
	rec.result = result{Correct: c.gate.failed == 0, Attempted: c.gate.attempted, Failed: c.gate.failed,
		Metrics: make(map[string]metricValue)}
	declared := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		declared[d.Name] = true
	}
	for name := range c.metrics {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if c.trace != traceOnly {
		for _, d := range man.EndToEnd {
			if c.metrics[d.Name] <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			rec.Metrics[d.Name] = metricValue{Value: c.metrics[d.Name], Unit: d.Unit}
		}
	}
	if c.trace != traceOff {
		for _, d := range man.PerLayer {
			rec.Metrics[d.Name] = metricValue{Value: c.metrics[d.Name], Unit: d.Unit}
		}
	}

	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rec.Metrics[name]
		extra := ""
		if n := c.samples[name]; n > 0 {
			extra = fmt.Sprintf("  (%d samples)", n)
		}
		c.logf("  %-34s %s %s%s", name, strconv.FormatFloat(mv.Value, 'g', -1, 64), mv.Unit, extra)
	}
	for _, note := range c.gate.notes {
		c.logf("FAILED %s", note)
	}
	if host.StealS >= 1 {
		c.logf("NOTE the hypervisor withheld %.1f CPU-seconds during this run; end-to-end timings are wall − steal ÷ busy threads", host.StealS)
	}
	c.logf("correctness: %d checks, %d failed", c.gate.attempted, c.gate.failed)
	return rec, nil
}

// quiesce collects garbage and returns freed memory to the OS between
// timed operations, untimed, so one iteration's garbage is not another's
// GC bill and peak RSS reflects one verify, not their sum.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (writing 5 to clear_refs), so each iteration's peak is its own and
// peak_rss_mb can be their median: a process-wide mark is the maximum
// over iterations, and GC timing makes one iteration in five peak 10%
// higher. Where the kernel refuses, marks accumulate and the median
// leans high, which is still a fair upper estimate.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last reset.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats // no procfs: the runtime's own footprint is the nearest thing
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runtimeUsage is the allocator and collector bill read around the
// traced iteration.
type runtimeUsage struct {
	totalAlloc, pauseNs uint64
	numGC               uint32
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	u := runtimeUsage{totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, numGC: ms.NumGC}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU, u.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return u
}

func (c *runConfig) setRuntime(before, after runtimeUsage) {
	c.metrics["runtime.alloc_mb"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20)
	c.metrics["runtime.num_gc"] = float64(after.numGC - before.numGC)
	c.metrics["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		c.metrics["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// logSamples prints the individual timings a median was taken over.
func (c *runConfig) logSamples(name string, xs []float64) {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	c.logf("samples %s: %s", name, strings.Join(parts, " "))
}

// timeSetup repeats set-up and reports the median as setup_s; the last
// result is the one the run uses. discard, when set, releases the
// previous result before each repeat, untimed.
func (c *runConfig) timeSetup(setup func() error, discard func()) error {
	minRuns, maxRuns := setupMinRuns, setupMaxRuns
	if c.trace == traceOnly {
		minRuns, maxRuns = 1, 1
	}
	// One set-up is milliseconds, too short for the steal counter's 10 ms
	// tick, so the median is scaled by the stolen share of the whole block.
	var times []float64
	block := startWatch()
	for len(times) < minRuns || (len(times) < maxRuns && time.Since(block.start) < setupFor) {
		if discard != nil {
			discard()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	c.metrics["setup_s"] = median(times) * (1 - block.stolenShare(time.Since(block.start)))
	c.samples["setup_s"] = len(times)
	return nil
}

// setTraceMetrics derives the metrics every traced run shares: one
// <span>_s per span name (median over its occurrences, so a repeated
// daemon op reports its typical cost), the MTBDD totals over every
// manager the run recorded, and the coverage accounting.
func (c *runConfig) setTraceMetrics(tr *tracer, reg *obs.Registry, untracedS float64) {
	seen := make(map[string]bool)
	for _, s := range tr.spans {
		if layerOf(s.Name) != benchLayer && !seen[s.Name] {
			seen[s.Name] = true
			c.metrics[s.Name+"_s"] = median(tr.durations(s.Name))
		}
	}
	share, unattributed, wall := tr.coverage(pipelineRoot)
	c.metrics["trace.coverage"] = share
	c.metrics["trace.unattributed_s"] = unattributed.Seconds()
	c.metrics["trace.wall_s"] = wall.Seconds()
	if untracedS > 0 {
		c.metrics["trace.overhead_pct"] = 100 * (wall.Seconds() - untracedS) / untracedS
	}
	if check, ok := c.metrics["core.check_s"]; ok {
		// The kreduce timer brackets only the aggregation multiply-adds of
		// the check phase, summed over its workers; what is left of check is
		// class grouping, range pruning, the terminal scan and witnesses.
		c.metrics["core.scan_s"] = check - c.metrics["core.kreduce_s"]/float64(effectiveWorkers(c.sh))
	}

	snap := reg.Snapshot()
	var created, gcRuns, kreduceCalls, fusionCuts float64
	peak, maxProbe := 0, 0
	for _, ms := range snap.Managers {
		created += float64(ms.Created)
		gcRuns += float64(ms.GCRuns)
		kreduceCalls += float64(ms.KReduceCalls)
		fusionCuts += float64(ms.FusionCuts)
		if ms.PeakLive > peak {
			peak = ms.PeakLive
		}
		if ms.MaxProbe > maxProbe {
			maxProbe = ms.MaxProbe
		}
	}
	c.metrics["mtbdd.created_nodes"] = created
	c.metrics["mtbdd.peak_nodes"] = float64(peak)
	c.metrics["mtbdd.gc_runs"] = gcRuns
	c.metrics["mtbdd.kreduce_calls"] = kreduceCalls
	c.metrics["mtbdd.fusion_cuts"] = fusionCuts
	c.metrics["mtbdd.max_probe"] = float64(maxProbe)
	for _, cache := range []string{"fused", "apply", "kreduce"} {
		if cc := snap.Caches[cache]; cc.Hits+cc.Misses > 0 {
			c.metrics["mtbdd."+cache+"_hit_ratio"] = float64(cc.Hits) / float64(cc.Hits+cc.Misses)
		}
	}
	if created > 0 {
		// Time in the layers that build MTBDDs, per node built. (Not wall:
		// the daemon's trace also holds the serve pass, whose managers are
		// the server's own.)
		symbolic := 0.0
		for _, s := range tr.spans {
			switch layerOf(s.Name) {
			case "routesim", "core", "tlp", "compose":
				if s.Parent >= 0 && tr.spans[s.Parent].Name == pipelineRoot {
					symbolic += float64(s.End - s.Start)
				}
			}
		}
		c.metrics["mtbdd.ns_per_created_node"] = symbolic / created
	}
}

// runBatch runs a library workload: timed public-path iterations over
// the run's inputs in turn, then (traced modes) one staged iteration on
// the first input, then the correctness gates.
func (c *runConfig) runBatch() error {
	var ins []*input
	err := c.timeSetup(func() (err error) {
		ins, err = generateAll(c.sh, c.seed)
		return err
	}, nil)
	if err != nil {
		return err
	}

	// refs[v] is the first public-path output on input v; every other path
	// and iteration on that input must reproduce its text byte for byte.
	refs := make([]*verdict, len(ins))
	publicOnce := func(v int) (elapsed, peak float64, err error) {
		quiesce()
		resetPeakRSS()
		watch := startWatch()
		out, err := ins[v].verifyPublic()
		elapsed = watch.elapsed().Seconds()
		c.gate.check(err == nil, "verify: %v", err)
		if err != nil {
			return 0, 0, err
		}
		peak = peakRSSMB()
		if refs[v] == nil {
			refs[v] = out
		}
		c.gold.match(&c.gate, fmt.Sprintf("verify.%d", v), out.text)
		return elapsed, peak, nil
	}
	// The process's first verify grows the heap from nothing and reads
	// 5-15% slow: it is checked like the others and not timed. It leaves
	// refs[0] for the traced pass and the cross-checks.
	if _, _, err := publicOnce(0); err != nil {
		return err
	}
	if c.trace != traceOnly {
		var times, peaks []float64
		peaksOf := make([][]float64, len(ins))
		for start := time.Now(); len(times) < c.sh.minIters || time.Since(start).Seconds() < c.seconds; {
			v := len(times) % len(ins)
			t, peak, err := publicOnce(v)
			if err != nil {
				return err
			}
			times, peaks = append(times, t), append(peaks, peak)
			peaksOf[v] = append(peaksOf[v], peak)
		}
		c.logSamples("verify_s", times)
		untracedS := median(times)
		c.metrics["verify_s"] = untracedS
		// Without a daemon there is no warm state: a changed spec or a new
		// portfolio costs the whole run again. The daemon workload is where
		// these two part ways from verify_s.
		c.metrics["delta_p50_ms"] = untracedS * 1e3
		c.metrics["tlp_query_p50_ms"] = untracedS * 1e3
		// Peak RSS moves in steps with the input (a unique table doubles or it
		// does not: 255 MB or 320 MB on wan-k2), and the median of a two-humped
		// sample jumps from one hump to the other with the iteration count.
		// Each input's own median, averaged over the inputs, does not.
		c.logSamples("peak_rss_mb", peaks)
		for _, p := range peaksOf {
			c.metrics["peak_rss_mb"] += median(p) / float64(len(ins))
		}
		for _, name := range []string{"verify_s", "delta_p50_ms", "tlp_query_p50_ms", "peak_rss_mb"} {
			c.samples[name] = len(times)
		}
	}

	in, ref := ins[0], refs[0]
	if c.trace != traceOff {
		// The traced wall is held against an untraced iteration on the same
		// input taken just before it, not against the median over all inputs.
		untracedS, _, err := publicOnce(0)
		if err != nil {
			return err
		}
		quiesce()
		tr, reg := newTracer(), obs.New()
		before := readRuntime()
		staged, err := in.verifyStaged(tr, reg, c.metrics)
		c.gate.check(err == nil, "staged verify: %v", err)
		if err != nil {
			return err
		}
		c.setRuntime(before, readRuntime())
		c.gold.match(&c.gate, "verify.0", staged.text) // the staged driver must reproduce the public path
		c.crossChecks(in, ref, tr)
		if err := probeFormatSpec(tr, staged.spec); err != nil {
			return err
		}
		c.setTraceMetrics(tr, reg, untracedS)
		if mono := c.metrics["compose.mono_verify_s"]; mono > 0 {
			c.metrics["compose.wall_ratio"] = c.metrics["trace.wall_s"] / mono
		}
		if err := tr.write(c.outDir(), c.name, c.seed); err != nil {
			return err
		}
	} else {
		c.crossChecks(in, ref, nil)
	}
	replayWitnesses(&c.gate, ref, c.sh.k, rand.New(rand.NewSource(c.seed)))
	return nil
}

// crossChecks holds a workload to its sibling path on the same input:
// the sharded run to the one-worker run, the compositional run to the
// monolithic one (timed as compose.mono_verify when traced).
func (c *runConfig) crossChecks(in *input, ref *verdict, tr *tracer) {
	if c.sh.pipe != pipeModular && in.workers <= 1 {
		return
	}
	sibling := *in
	sibling.workers = 1
	label := "one-worker"
	quiesce()
	root := tr.begin(probeRoot)
	sp := -1
	if c.sh.pipe == pipeModular {
		sibling.sh.pipe = pipeVerify
		label = "monolithic"
		sp = tr.begin("compose.mono_verify")
	}
	v, err := sibling.verifyPublic()
	if sp >= 0 {
		tr.end(sp)
	}
	tr.end(root)
	c.gate.check(err == nil && v.text == ref.text, "%s run of the same input differs (err %v)", label, err)
}

// probeFormatSpec times canonical spec rendering — what set-up does once
// and the daemon does on every delta — as a probe span.
func probeFormatSpec(tr *tracer, spec *config.Spec) error {
	root := tr.begin(probeRoot)
	sp := tr.begin("canon.format_spec")
	_, err := canon.FormatSpec(spec)
	tr.end(sp)
	tr.end(root)
	return err
}
