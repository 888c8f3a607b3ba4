package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu"
)

const testSpec = "../../testdata/motivating.yu"

// TestVerifyFlagRejectsUnknownValues pins the parse-time validation of
// every enumerated flag: a bad value must be a usage error from
// fs.Parse itself (exit 2 under ExitOnError), not a late fatal() after
// the spec file has already been loaded.
func TestVerifyFlagRejectsUnknownValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"on-budget", []string{"-on-budget", "explode", testSpec}},
		{"metrics", []string{"-metrics", "xml", testSpec}},
		{"mode", []string{"-mode", "cables", testSpec}},
		{"engine", []string{"-engine", "warp", testSpec}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseVerifyFlags(tc.args, flag.ContinueOnError); err == nil {
				t.Fatalf("parseVerifyFlags(%v) accepted a bad -%s value", tc.args, tc.name)
			}
		})
	}
}

// TestVerifyFlagRejectsDegradedPortfolio: the degrade policy answers the
// spec's own properties only, so pairing it with -tlp is a usage error
// (exit 2 under ExitOnError) before the spec is loaded; -on-budget fail
// with -tlp stays accepted.
func TestVerifyFlagRejectsDegradedPortfolio(t *testing.T) {
	if _, err := parseVerifyFlags([]string{"-tlp", "p.tlp", "-on-budget", "degrade", testSpec}, flag.ContinueOnError); err == nil {
		t.Fatal("parseVerifyFlags accepted -tlp with -on-budget degrade")
	}
	if _, err := parseVerifyFlags([]string{"-tlp", "p.tlp", "-on-budget", "fail", testSpec}, flag.ContinueOnError); err != nil {
		t.Fatalf("-tlp with -on-budget fail: %v", err)
	}
}

func TestVerifyFlagAcceptsKnownValues(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{
		"-k", "2", "-mode", "routers", "-engine", "enumerate",
		"-on-budget", "degrade", "-metrics", "json",
		"-overload", "0.9", "-workers", "3", "-timeout", "5s",
		"-max-nodes", "1000", "-stats",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out", "-trace", "trace.out",
		testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.k != 2 || !cfg.modeSet || cfg.mode != yu.FailRouters {
		t.Errorf("k/mode not parsed: %+v", cfg)
	}
	if cfg.engine != yu.EngineEnumerate || cfg.onBudget != yu.BudgetDegrade {
		t.Errorf("engine/on-budget not parsed: %+v", cfg)
	}
	if cfg.metrics != "json" || cfg.overload != 0.9 || cfg.workers != 3 {
		t.Errorf("metrics/overload/workers not parsed: %+v", cfg)
	}
	if cfg.timeout != 5*time.Second || cfg.maxNodes != 1000 || !cfg.stats {
		t.Errorf("timeout/max-nodes/stats not parsed: %+v", cfg)
	}
	if cfg.cpuprofile != "cpu.out" || cfg.memprofile != "mem.out" || cfg.traceFile != "trace.out" {
		t.Errorf("profile flags not parsed: %+v", cfg)
	}
	if cfg.spec != testSpec {
		t.Errorf("spec = %q, want %q", cfg.spec, testSpec)
	}
}

func TestVerifyFlagDefaults(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{testSpec}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.engine != yu.EngineYU || cfg.onBudget != yu.BudgetFail {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.metrics != "" || cfg.modeSet {
		t.Errorf("metrics/mode should default off: %+v", cfg)
	}
}

func TestVerifyRequiresSpecArg(t *testing.T) {
	if _, err := parseVerifyFlags(nil, flag.ContinueOnError); err == nil {
		t.Fatal("parseVerifyFlags with no spec argument should fail")
	}
	if _, err := parseVerifyFlags([]string{"a.yu", "b.yu"}, flag.ContinueOnError); err == nil {
		t.Fatal("parseVerifyFlags with two spec arguments should fail")
	}
}

// metricsDoc mirrors the obs.Snapshot JSON schema as far as the CLI
// contract promises it: per-phase durations and per-cache hit/miss for
// all four MTBDD caches.
type metricsDoc struct {
	Phases []struct {
		Path string  `json:"path"`
		MS   float64 `json:"ms"`
	} `json:"phases"`
	Counters map[string]int64 `json:"counters"`
	Caches   map[string]struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"caches"`
	Managers []struct {
		Name       string `json:"name"`
		CacheBytes uint64 `json:"cache_bytes"`
		NodeBytes  uint64 `json:"node_bytes"`
	} `json:"managers"`
}

func TestRunVerifyMetricsJSON(t *testing.T) {
	dir := t.TempDir()
	cfg, err := parseVerifyFlags([]string{
		"-metrics", "json",
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
		"-trace", filepath.Join(dir, "trace.out"),
		testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("runVerify = %d, stdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("VERIFIED")) {
		t.Errorf("stdout missing verdict:\n%s", &stdout)
	}

	// stderr must be exactly one parseable JSON document.
	var doc metricsDoc
	if err := json.Unmarshal(stderr.Bytes(), &doc); err != nil {
		t.Fatalf("metrics stderr is not valid JSON: %v\n%s", err, &stderr)
	}
	phases := map[string]bool{}
	for _, p := range doc.Phases {
		phases[p.Path] = true
	}
	for _, want := range []string{"parse", "routesim", "routesim/igp", "routesim/bgp", "routesim/finish", "execute", "check"} {
		if !phases[want] {
			t.Errorf("metrics missing phase %q (got %v)", want, doc.Phases)
		}
	}
	// Route simulation explains itself: what the IGP sweep built and how
	// much of the RIB the BGP rounds re-evaluated.
	for _, want := range []string{"routesim.igp_levels", "routesim.bgp_rounds", "routesim.bgp_entries", "routesim.bgp_recomputed", "routesim.bgp_offers", "routesim.templates_rebuilt"} {
		if doc.Counters[want] <= 0 {
			t.Errorf("metrics counter %q = %d, want > 0 (got %v)", want, doc.Counters[want], doc.Counters)
		}
	}
	// So does the check stage: every load it looked at ended one of three
	// ways, and its classes are accounted for.
	ends := doc.Counters["check.links_bounded"] + doc.Counters["check.links_decided"] + doc.Counters["check.links_built"]
	if ends <= 0 || doc.Counters["check.classes_total"] <= 0 || doc.Counters["check.classes_enumerated"] > doc.Counters["check.classes_total"] {
		t.Errorf("metrics do not account for the check stage: %v", doc.Counters)
	}
	for _, c := range []string{"fused", "kreduce", "neg", "range"} {
		if _, ok := doc.Caches[c]; !ok {
			t.Errorf("metrics missing cache %q (got %v)", c, doc.Caches)
		}
	}
	if len(doc.Managers) == 0 {
		t.Error("metrics has no manager stats")
	}
	for _, m := range doc.Managers {
		if m.CacheBytes == 0 {
			t.Errorf("manager %s does not say what its tables cost: %+v", m.Name, m)
		}
		if m.NodeBytes == 0 {
			t.Errorf("manager %s does not say what its node slabs cost: %+v", m.Name, m)
		}
	}

	// The profiling flags must have produced real files.
	for _, f := range []string{"cpu.pprof", "mem.pprof", "trace.out"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("profile %s: %v", f, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
}

func TestRunVerifyMetricsText(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{"-metrics", "text", testSpec}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("runVerify = %d, stderr:\n%s", code, &stderr)
	}
	for _, want := range []string{"phases", "caches", "kreduce", "tables 0.6 MB\n"} {
		if !bytes.Contains(stderr.Bytes(), []byte(want)) {
			t.Errorf("text metrics missing %q:\n%s", want, &stderr)
		}
	}
}

// TestRunVerifyStatsListsManagers: -stats alone (no -metrics) says what
// every manager of the run held in its tables.
func TestRunVerifyStatsListsManagers(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{"-stats", "-workers", "1", testSpec}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("runVerify = %d, stderr:\n%s", code, &stderr)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("manager primary")) || !bytes.Contains(stdout.Bytes(), []byte(" nodes, tables ")) {
		t.Errorf("-stats lists no manager with its table size:\n%s", &stdout)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("route-sim: igp ")) || !bytes.Contains(stdout.Bytes(), []byte(" rounds, ")) {
		t.Errorf("-stats does not break route simulation down:\n%s", &stdout)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("execute: 2 classes: 2 executed, 0 shared; 1 forwarding classes over 1 prefixes; ")) {
		t.Errorf("-stats does not say what the execution stage executed and shared:\n%s", &stdout)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("check: ")) || !bytes.Contains(stdout.Bytes(), []byte(" classes enumerated, aggregation ")) {
		t.Errorf("-stats does not say what the check stage did with its links:\n%s", &stdout)
	}
	if bytes.Contains(stdout.Bytes(), []byte("workers:")) {
		t.Errorf("-stats of a one-worker run has a workers: line:\n%s", &stdout)
	}
	if stderr.Len() != 0 {
		t.Errorf("-stats without -metrics wrote to stderr:\n%s", &stderr)
	}
}

// TestRunVerifyStatsWorkersLine: -workers is parsed and ignored. -stats at
// -workers 2 prints no workers: line and the run's execute: and check: lines
// as at -workers 1, and every testdata spec gives the same canonical report at
// -workers 1 and 4.
func TestRunVerifyStatsWorkersLine(t *testing.T) {
	run := func(args ...string) (int, string) {
		t.Helper()
		cfg, err := parseVerifyFlags(args, flag.ContinueOnError)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := runVerify(cfg, &stdout, &stderr)
		return code, stdout.String()
	}
	counts := func(stats string) string {
		var keep []string
		for _, line := range strings.Split(stats, "\n") {
			if strings.HasPrefix(line, "execute: ") || strings.HasPrefix(line, "flows: ") {
				keep = append(keep, line)
			} else if strings.HasPrefix(line, "check: ") {
				keep = append(keep, line[:strings.Index(line, ", aggregation ")])
			}
		}
		return strings.Join(keep, "\n")
	}
	_, one := run("-stats", "-workers", "1", "-overload", "2", testSpec)
	_, two := run("-stats", "-workers", "2", "-overload", "2", testSpec)
	if strings.Contains(two, "workers:") {
		t.Errorf("-stats -workers 2 has a workers: line:\n%s", two)
	}
	if counts(one) == "" || counts(two) != counts(one) {
		t.Errorf("-workers 2 counts\n%s\n-workers 1 counts\n%s", counts(two), counts(one))
	}
	specs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.yu"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, spec := range specs {
		code1, out1 := run("-canon", "-overload", "0.95", "-workers", "1", spec)
		code4, out4 := run("-canon", "-overload", "0.95", "-workers", "4", spec)
		if code1 != code4 || out1 != out4 {
			t.Errorf("%s: -workers 4 exits %d with\n%s-workers 1 exits %d with\n%s", filepath.Base(spec), code4, out4, code1, out1)
		}
	}
}

// TestRunVerifyMetricsOnIncomplete pins the ISSUE contract that metrics
// are emitted on partial/INCOMPLETE runs too: an already-expired
// timeout still produces a parseable metrics document alongside the
// INCOMPLETE verdict.
func TestRunVerifyMetricsOnIncomplete(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{
		"-metrics", "json", "-timeout", "1ns", testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("runVerify = %d, want 1 (interrupted)\nstdout:\n%s", code, &stdout)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("INCOMPLETE")) {
		t.Errorf("stdout missing INCOMPLETE verdict:\n%s", &stdout)
	}
	var doc metricsDoc
	if err := json.Unmarshal(stderr.Bytes(), &doc); err != nil {
		t.Fatalf("metrics on INCOMPLETE run is not valid JSON: %v\n%s", err, &stderr)
	}
	for _, c := range []string{"fused", "kreduce", "neg", "range"} {
		if _, ok := doc.Caches[c]; !ok {
			t.Errorf("INCOMPLETE metrics missing cache %q", c)
		}
	}
}

func TestRunVerifyBadSpec(t *testing.T) {
	cfg, err := parseVerifyFlags([]string{
		filepath.Join(t.TempDir(), "missing.yu"),
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runVerify(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("runVerify on missing spec = %d, want 1", code)
	}
}

// TestRunVerifyNotConverged: a spec whose BGP never stabilises exits 1
// with a one-line reason and prints no verdict line, on the plain,
// portfolio and compositional paths alike.
func TestRunVerifyNotConverged(t *testing.T) {
	gadget := filepath.Join("..", "..", "testdata", "notconverged", "disagree.yu")
	portfolio := filepath.Join(t.TempDir(), "p.tlp")
	if err := os.WriteFile(portfolio, []byte("tlp util 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-overload", "0.5", gadget},
		{"-overload", "0.5", "-canon", gadget},
		{"-tlp", portfolio, gadget},
		{"-domains", "o:O;a:A;b:B", gadget},
	} {
		cfg, err := parseVerifyFlags(args, flag.ContinueOnError)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := runVerify(cfg, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a verdict:\n%s", args, &stdout)
		}
		msg := stderr.String()
		if !strings.Contains(msg, "BGP did not converge in 10 rounds; still changing: A 100.9.0.0/24, B 100.9.0.0/24") ||
			strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr is not the one-line reason:\n%s", args, msg)
		}
	}
}

// TestRunVerifySubPrefix: on the sub-prefix gadgets (a delivered bound that
// cuts through a global-equivalence class) the symbolic paths of the CLI —
// default, two auto-domains, and the spec's own tlp lines
// through -tlp — exit as concrete enumeration does and name the same
// violated bounds.
func TestRunVerifySubPrefix(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "subprefix", "*.yu"))
	if err != nil || len(specs) < 3 {
		t.Fatalf("want the three sub-prefix specs, found %d (%v)", len(specs), err)
	}
	run := func(args ...string) (int, string) {
		t.Helper()
		cfg, err := parseVerifyFlags(args, flag.ContinueOnError)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := runVerify(cfg, &stdout, &stderr)
		var violated []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, "delivered traffic to") {
				violated = append(violated, strings.TrimSpace(line))
			}
		}
		return code, strings.Join(violated, "\n")
	}
	for _, spec := range specs {
		wantCode, want := run("-engine", "enumerate", spec)
		for _, args := range [][]string{{}, {"-auto-domains", "2"}} {
			if code, got := run(append(args, spec)...); code != wantCode || got != want {
				t.Errorf("%s %v: exit %d with\n%s\nenumeration exits %d with\n%s", filepath.Base(spec), args, code, got, wantCode, want)
			}
		}
		data, err := os.ReadFile(spec)
		if err != nil {
			t.Fatal(err)
		}
		var tlps []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "tlp ") {
				tlps = append(tlps, line)
			}
		}
		portfolio := filepath.Join(t.TempDir(), "p.tlp")
		if err := os.WriteFile(portfolio, []byte(strings.Join(tlps, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		// The tlp lines restate the spec's delivered bounds (and add
		// ratios that hold), so the portfolio fails exactly when they do.
		if code, _ := run("-tlp", portfolio, spec); code != wantCode {
			t.Errorf("%s -tlp: exit %d, enumeration of the same bounds exits %d", filepath.Base(spec), code, wantCode)
		}
	}
}
