package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// readRecords loads a -out file: one record per line. Traced-only runs
// carry no end-to-end metrics and are skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != traceOnly {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// side summarises one file's runs of one workload × metric.
type side struct {
	n          int
	q1, q2, q3 float64
}

func summarise(recs []record, metric string) side {
	var xs []float64
	for _, r := range recs {
		if mv, ok := r.Metrics[metric]; ok {
			xs = append(xs, mv.Value)
		}
	}
	q1, q2, q3 := quartiles(xs)
	return side{n: len(xs), q1: q1, q2: q2, q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.q2
}

// compareFiles prints, per workload × end-to-end metric, both medians
// with their quartiles, the ratio with its base, and the verdict against
// the metric's bound in BENCHMARK.json: regressed when NEW's median is
// worse than OLD's by more than the bound; unresolved when it is not
// but either side's own spread is wider than the bound, so "no
// regression" cannot be told from noise; ok otherwise.
func compareFiles(w io.Writer, man *manifest, oldPath, newPath string) (regressed bool, err error) {
	olds, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %-22s %7s %6s  %s\n",
		"workload", "metric", "OLD median [q1, q3] n", "NEW median [q1, q3] n", "NEW/OLD (base OLD)", "spread", "bound", "verdict")
	show := func(s side) string {
		return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", s.q2, s.q1, s.q3, s.n)
	}
	for _, wl := range man.Workloads {
		for _, def := range man.EndToEnd {
			o, n := summarise(olds[wl.Name], def.Name), summarise(news[wl.Name], def.Name)
			if o.n == 0 || n.n == 0 {
				continue
			}
			if o.q2 == 0 {
				return false, fmt.Errorf("%s %s: OLD median is 0, no ratio has a base", wl.Name, def.Name)
			}
			worse := (n.q2 - o.q2) / o.q2
			if def.Better == "higher" {
				worse = -worse
			}
			spread := o.spread()
			if s := n.spread(); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case worse > def.Bound:
				verdict, regressed = "regressed", true
			case spread > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %-22s %6.1f%% %5.0f%%  %s\n", wl.Name, def.Name, show(o), show(n),
				fmt.Sprintf("%.4f (%.5g %s)", n.q2/o.q2, o.q2, def.Unit), 100*spread, 100*def.Bound, verdict)
		}
	}
	for _, wl := range man.Workloads {
		for _, r := range append(append([]record(nil), olds[wl.Name]...), news[wl.Name]...) {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: %d of %d correctness checks failed\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				regressed = true
			}
		}
	}
	return regressed, nil
}

// selfCheck is the A/A test: the same build, the same seed, two sets of
// runs taken alternately, compared against the benchmark's own bounds in
// both directions. A benchmark that cannot agree with itself cannot
// judge a change. The printed spreads are what the bounds have to clear.
func selfCheck(stdout, stderr io.Writer, man *manifest, seed int64, seconds float64, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	outDir := filepath.Join(man.benchDir(), "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	files := [2]string{filepath.Join(outDir, "selfcheck-a.jsonl"), filepath.Join(outDir, "selfcheck-b.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for r := 0; r < runs; r++ {
		for _, wl := range man.Workloads {
			for i := range files {
				f := files[(i+r)%2] // alternate which side goes first
				fmt.Fprintf(stdout, "selfcheck: run %d/%d %s → %s\n", r+1, runs, wl.Name, filepath.Base(f))
				// One process per run, as the driver runs them: a run starts from a cold heap.
				cmd := exec.Command(exe, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", f)
				cmd.Stderr = stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
			}
		}
	}
	fmt.Fprintln(stdout, "\nA → B")
	ab, err := compareFiles(stdout, man, files[0], files[1])
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nB → A")
	ba, err := compareFiles(stdout, man, files[1], files[0])
	if err != nil {
		return err
	}
	if ab || ba {
		return fmt.Errorf("selfcheck: two sets of runs of the same build disagree beyond the bounds")
	}
	fmt.Fprintln(stdout, "\nselfcheck: ok")
	return nil
}
