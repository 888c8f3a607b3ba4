package difftest

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	_ "unsafe" // for go:linkname

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
)

// mtbddTableMode is internal/mtbdd's unexported test hook (tables.go): it
// overrides the geometry of the computed tables of every manager made
// while it is set. Reached by linkname because the hook must not become
// an option.
//
//go:linkname mtbddTableMode github.com/yu-verify/yu/internal/mtbdd.tableMode
var mtbddTableMode int

// TestVerdictsIndependentOfTableGeometry: the computed tables are lossy
// caches in front of deterministic recursions, so what they hold — and
// therefore their size — must never reach a report. Every testdata spec ×
// k ∈ {1,2} × {monolithic, the spec's domains} renders the same canonical
// bytes with the tables as shipped, at 2 entries (every lookup but an
// immediate repeat misses) and at the sizes they grew to before their
// geometry was fixed (2^20/2^20/2^19/2^17/2^17).
func TestVerdictsIndependentOfTableGeometry(t *testing.T) {
	modes := []struct {
		name string
		mode int // mtbdd's tablesShipped, tablesTwoEntries, tablesOldCaps
	}{{"shipped", 0}, {"two-entries", 1}, {"old-caps", 2}}
	defer func() { mtbddTableMode = 0 }()

	root := filepath.Join("..", "..", "testdata")
	files, err := filepath.Glob(filepath.Join(root, "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, file := range files {
		n, err := yu.LoadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		plans := []map[string][]string{nil}
		if len(n.Spec().Domains) > 0 {
			plans = append(plans, n.Spec().Domains)
		}
		for _, k := range []int{1, 2} {
			for _, domains := range plans {
				name := fmt.Sprintf("%s/k=%d/domains=%v", strings.TrimSuffix(filepath.Base(file), ".yu"), k, domains != nil)
				t.Run(name, func(t *testing.T) {
					var want string
					var tableBytes []uint64 // of the primary manager, per mode
					for _, m := range modes {
						mtbddTableMode = m.mode
						reg := yu.NewMetrics()
						rep, err := n.Verify(yu.VerifyOptions{K: k, OverloadFactor: 0.95, Domains: domains, Obs: reg})
						if err != nil {
							t.Fatalf("%s: %v", m.name, err)
						}
						if domains != nil && rep.Modular == nil {
							t.Fatalf("%s: the compositional build fell back to the monolithic pipeline", m.name)
						}
						for _, ms := range reg.Snapshot().Managers {
							if ms.Name == "primary" {
								tableBytes = append(tableBytes, ms.CacheBytes)
							}
						}
						got := canon.FormatReport(n.Topology(), rep)
						if want == "" {
							want = got
						} else if got != want {
							t.Errorf("tables %s render a different report\n--- %s ---\n%s--- %s ---\n%s", m.name, modes[0].name, want, m.name, got)
						}
					}
					// The hook took: two entries < shipped < old caps.
					if len(tableBytes) != 3 || tableBytes[1] >= tableBytes[0] || tableBytes[0] >= tableBytes[2] {
						t.Errorf("table bytes of the primary manager %v (shipped, two entries, old caps): the geometry hook did not take", tableBytes)
					}
				})
			}
		}
	}
}
