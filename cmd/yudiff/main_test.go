package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCase runs yudiff with args and returns its exit status and output.
func runCase(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSeedRunsOneCase: -seed runs exactly that case — seed 0 included,
// which is a seed like any other and not "the flag was not given".
func TestSeedRunsOneCase(t *testing.T) {
	for _, seed := range []string{"0", "3"} {
		code, out, errOut := runCase(t, "-seed", seed, "-v")
		if code != 0 {
			t.Fatalf("-seed %s: exit %d\n%s%s", seed, code, out, errOut)
		}
		if n := strings.Count(out, ": ok ("); n != 1 || !strings.Contains(out, "seed "+seed+": ok") {
			t.Errorf("-seed %s ran %d cases, want seed %s alone:\n%s", seed, n, seed, out)
		}
		if !strings.Contains(out, "1 cases, ") {
			t.Errorf("-seed %s: summary does not count one case:\n%s", seed, out)
		}
	}
}

// TestStrayArgumentIsUsageError: yudiff takes flags only.
func TestStrayArgumentIsUsageError(t *testing.T) {
	if code, out, errOut := runCase(t, "-seed", "3", "stray"); code != 2 {
		t.Fatalf("a stray argument exited %d, want 2\n%s%s", code, out, errOut)
	}
	if code, _, _ := runCase(t, "-no-such-flag"); code != 2 {
		t.Fatalf("an unknown flag exited %d, want 2", code)
	}
}

// TestBudgetStopsAfterOneCase: a budget that has run out before the first
// case still lets that case run, and stops the run after it.
func TestBudgetStopsAfterOneCase(t *testing.T) {
	code, out, errOut := runCase(t, "-budget", "1ns", "-start", "3", "-v")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	if n := strings.Count(out, ": ok ("); n != 1 || !strings.Contains(out, "exhausted after 1 cases") {
		t.Errorf("-budget 1ns ran %d cases, want 1:\n%s", n, out)
	}
}
