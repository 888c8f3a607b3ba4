package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// toyShapes resize every workload so the same code paths run in well
// under a second each. The batch workloads take variants+1 iterations, so
// every input is verified and the first is verified again.
var toyShapes = map[string]shape{
	"wan-k1":       shape{pipe: pipeVerify, routers: 12, links: 20, prefixes: 6, topoSeed: 11, flows: 60, flowSeedOff: 101, k: 1, workers: 1, minIters: variants + 1},
	"wan-k2":       shape{pipe: pipeVerify, routers: 10, links: 16, prefixes: 5, topoSeed: 10, flows: 40, flowSeedOff: 100, k: 2, workers: 1, minIters: variants + 1},
	"wan-k2-par":   shape{pipe: pipeVerify, routers: 10, links: 16, prefixes: 5, topoSeed: 10, flows: 40, flowSeedOff: 100, k: 2, workers: 2, minIters: variants + 1},
	"portfolio-1k": shape{pipe: pipePortfolio, routers: 12, links: 20, prefixes: 6, topoSeed: 10, flows: 60, flowSeedOff: 100, k: 1, workers: 1, props: 40, minIters: variants + 1},
	"modular":      shape{pipe: pipeModular, domains: 2, routersPer: 5, prefixesPer: 2, flowsPer: 3, k: 1, workers: 1, minIters: variants + 1},
	"daemon":       shape{pipe: pipeDaemon, routers: 12, links: 20, prefixes: 6, topoSeed: 10, flows: 60, flowSeedOff: 100, k: 1, workers: 1, props: 12, deltas: 8, tlpQueries: 2, minIters: 1},
}

// layersRun names, per workload, per-layer metrics that must come out
// nonzero because that layer does real work there — a driver that stops
// reaching a layer shows up here rather than as a silent zero.
var layersRun = map[string][]string{
	"wan-k1":       {"config.parse_s", "routesim.igp_s", "routesim.bgp_s", "core.execute_s", "core.check_s", "core.classes", "core.aggregate_s", "mtbdd.created_nodes", "canon.format_report_s"},
	"wan-k2":       {"routesim.igp_s", "core.execute_s", "core.check_s", "mtbdd.peak_nodes", "mtbdd.kreduce_calls"},
	"wan-k2-par":   {"routesim.import_s", "routesim.import_nodes", "core.execute_s", "core.sched_chunks", "core.worker_busy_share"},
	"portfolio-1k": {"tlp.compile_s", "tlp.eval_s", "tlp.link_scans", "tlp.restrict_scans", "tlp.props_per_scan", "core.execute_s"},
	"modular":      {"compose.build_s", "compose.rounds", "compose.contained_classes", "compose.mono_verify_s", "compose.wall_ratio", "core.check_s"},
	"daemon":       {"serve.load_s", "serve.report_cold_s", "serve.apply_s", "serve.report_s", "serve.tlp_eval_s", "serve.cache_hit_ratio", "serve.wal_bytes", "serve.save_state_s", "serve.warm_vs_cold", "serve.http_overhead_ms", "tlp.eval_s", "routesim.bgp_s", "canon.format_spec_s"},
}

// TestSmoke runs every workload at toy size through both the untraced
// and the traced path and holds the output to BENCHMARK.json: the same
// workloads, exactly the declared metrics with legal names and units,
// every gate green, and a trace whose spans nest.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	declared := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if !legalName.MatchString(d.Name) || !legalUnit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q is not a legal name/unit", d.Name, d.Unit)
		}
		if _, dup := declared[d.Name]; dup {
			t.Errorf("metric %q declared twice", d.Name)
		}
		declared[d.Name] = d.Unit
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := &runConfig{name: w.name, sh: toyShapes[w.name], seed: defaultSeed, trace: traceBoth, dir: dir, log: io.Discard}
			rec, err := cfg.run(man)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("gates: %d of %d failed: %v", rec.Failed, rec.Attempted, cfg.gate.notes)
			}
			if len(rec.Metrics) != len(declared) {
				t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rec.Metrics), len(declared))
			}
			for name, mv := range rec.Metrics {
				if unit, ok := declared[name]; !ok || unit != mv.Unit {
					t.Errorf("metric %s unit %q: declared %q (declared: %v)", name, mv.Unit, unit, ok)
				}
			}
			for _, d := range man.EndToEnd {
				if rec.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, must be positive", d.Name, rec.Metrics[d.Name].Value)
				}
			}
			for _, name := range layersRun[w.name] {
				if rec.Metrics[name].Value <= 0 {
					t.Errorf("per-layer metric %s = %g on a workload where its layer runs", name, rec.Metrics[name].Value)
				}
			}
			if cov := rec.Metrics["trace.coverage"].Value; cov <= 0 || cov > 1 {
				t.Errorf("trace.coverage = %g, want in (0, 1]", cov)
			}

			data, err := os.ReadFile(filepath.Join(dir, "out", "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file has no spans")
			}
			for i, s := range tf.Spans {
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", i, s.Name)
				}
				if s.Parent < 0 {
					continue
				}
				if s.Parent >= i {
					t.Fatalf("span %d (%s) has parent %d, not an earlier span", i, s.Name, s.Parent)
				}
				if p := tf.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
					t.Errorf("span %d (%s) is not inside its parent %s", i, s.Name, p.Name)
				}
			}
		})
	}
}

// TestManifestContract holds BENCHMARK.json to the limits the benchmark
// driver refuses a manifest over, so a later edit fails here first.
func TestManifestContract(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range man.Workloads {
		if !legalName.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: illegal name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", man.RunSeconds)
	}
	if len(man.EndToEnd) < 1 || len(man.EndToEnd) > 16 || len(man.PerLayer) < 1 || len(man.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(man.EndToEnd), len(man.PerLayer))
	}
	var setup metricDef
	for _, d := range man.EndToEnd {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s: bound %g, want in (0, 0.25] and no larger than setup_s's", d.Name, d.Bound)
		}
	}
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	// 4 + 22 runs per workload must fit the driver's 3420 s with their
	// set-up, checks and two builds: allow each run twice its measuring time.
	if total := (4 + 22*len(man.Workloads)) * 2 * man.RunSeconds; total > 3420 {
		t.Errorf("run_seconds %d leaves no room: %d runs at twice that is %d s", man.RunSeconds, 4+22*len(man.Workloads), total)
	}
}

// TestGoldenFiles holds the recorded digests to the cross-path rule they
// stand in for at the default seed: one file per workload, and the
// sharded run's output equal to the one-worker run's.
func TestGoldenFiles(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(goldenPath(".", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, w := range workloads {
		if read(w.name) == "" {
			t.Errorf("golden/%s.sha256 is empty", w.name)
		}
	}
	if read("wan-k2") != read("wan-k2-par") {
		t.Error("golden digests of wan-k2 and wan-k2-par differ: worker count must not change the report")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}
