package main

import (
	"bytes"
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
