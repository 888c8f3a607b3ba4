package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func runYubench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestTable1(t *testing.T) {
	code, out, errs := runYubench("-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"Table 1: generality", "QARC (spath)", "Jingubang (enum)", "spath faithful on motivating"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, out, errs := runYubench("-exp", "fig99")
	if code != 1 || out != "" || !strings.Contains(errs, `unknown experiment "fig99"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if code, _, errs := runYubench("-scale", "huge"); code != 1 || !strings.Contains(errs, "unknown scale") {
		t.Fatalf("-scale huge: exit %d, stderr %q", code, errs)
	}
}

// TestRetiredExperiments: the repo-experiment names are gone — from -exp,
// from "all" and from the usage text — and each points at the benchmark
// workload that replaced it.
func TestRetiredExperiments(t *testing.T) {
	_, _, usage := runYubench("-h")
	for name, workload := range retired {
		code, out, errs := runYubench("-exp", name)
		if code != 1 || out != "" {
			t.Errorf("-exp %s: exit %d, stdout %q", name, code, out)
		}
		if want := "go run ./benchmark -workload " + workload; !strings.Contains(errs, want) {
			t.Errorf("-exp %s: stderr %q does not point at %q", name, errs, want)
		}
		if slices.Contains(order, name) {
			t.Errorf("-exp all still runs %s", name)
		}
		if strings.Contains(usage, name) {
			t.Errorf("usage still mentions %s:\n%s", name, usage)
		}
	}
	if len(retired) != 6 {
		t.Errorf("%d retired names, want the six repo experiments", len(retired))
	}
}
