package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
)

// TestWorkersByteIdentitySweep pins the scheduler's central guarantee on
// every checked-in example network: for each testdata spec and failure
// budget, the canonical report rendering (FormatReport, which excludes
// wall-clock fields) is identical at every worker count. Worker counts
// above the class count exercise the spawn collapse: 8 workers on the
// small specs must spawn no more goroutines than there are classes.
func TestWorkersByteIdentitySweep(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	specs := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".yu") {
			continue
		}
		specs++
		path := filepath.Join(root, ent.Name())
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", ent.Name(), k), func(t *testing.T) {
				n, err := yu.LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				opts := yu.VerifyOptions{K: k, OverloadFactor: 1.0, Workers: 1}
				baseline, err := n.Verify(opts)
				if err != nil {
					t.Fatal(err)
				}
				want := FormatReport(n.Topology(), baseline)
				for _, w := range []int{2, 4, 8} {
					opts.Workers = w
					rep, err := n.Verify(opts)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if got := FormatReport(n.Topology(), rep); got != want {
						t.Errorf("workers=%d report differs from sequential\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
							w, want, w, got)
					}
					if rep.Sched.Workers > rep.FlowsExecuted {
						t.Errorf("workers=%d: spawned %d goroutines for %d executed classes",
							w, rep.Sched.Workers, rep.FlowsExecuted)
					}
				}
			})
		}
	}
	if specs == 0 {
		t.Fatal("no .yu specs found in testdata")
	}
}
