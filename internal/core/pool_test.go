package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/topo"
)

// TestPoolHandsOutEveryClassOnce runs execution's chunks through the pool —
// the one-worker pool included, which no constructor reaches — and requires
// every class executed exactly once and sealed by its chunk, never a goroutine
// without a chunk, and about four chunks a worker.
func TestPoolHandsOutEveryClassOnce(t *testing.T) {
	spec, err := config.ParseSpecString(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { testExecHook = nil }()
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 1357} {
			name := fmt.Sprintf("workers=%d classes=%d", workers, n)
			flows := make([]topo.Flow, n)
			for i := range flows {
				flows[i] = spec.Flows[0]
				flows[i].Name = fmt.Sprint("f", i)
			}
			var mu sync.Mutex
			ran := make(map[string]int, n)
			testExecHook = func(f topo.Flow) {
				mu.Lock()
				ran[f.Name]++
				mu.Unlock()
			}
			reg := obs.New()
			// Every flow its own class: the class list is the flow list.
			v := newVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{DisableGlobalEquiv: true, Obs: reg}), flows, workers)
			sealed, at, err := v.executeSharded()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(ran) != n {
				t.Fatalf("%s: %d classes executed of %d", name, len(ran), n)
			}
			next := 0
			for c, l := range sealed {
				for k, ci := range at[c] {
					if ci != next || len(l.STFs) != len(at[c]) || ran[flows[ci].Name] != 1 {
						t.Fatalf("%s: class %d executed %d times, sealed by chunk %d as %d", name, ci, ran[flows[ci].Name], c, k)
					}
					next++
				}
			}
			if next != n {
				t.Fatalf("%s: the chunks sealed %d STFs for %d classes", name, next, n)
			}
			st := v.SchedStats()
			shards := 0
			for _, m := range reg.Snapshot().Managers {
				if strings.HasPrefix(m.Name, "exec-shard.") {
					shards++
				}
			}
			if shards != st.Workers || st.Workers != min(workers, n) || st.Workers > st.Chunks {
				t.Fatalf("%s: %d goroutines for %+v", name, shards, st)
			}
			if n >= 4*workers && (st.Chunks < 3*workers || st.Chunks > 4*workers) {
				t.Fatalf("%s: %d chunks, want about four a worker", name, st.Chunks)
			}
		}
	}
}

// TestPoolCheckShardPanic: a panic inside one check shard is that Check's
// error — not a crash — with the plan that raised it not done, and the
// verifier checks on afterwards.
func TestPoolCheckShardPanic(t *testing.T) {
	spec, flows := wanWorkload(t)
	v := NewParallelVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows, 2)
	plans := lower(spec.Net, nil, nil, 0.5, true)
	good := plans[0]
	plans[0].Checks = nil // the pruned scan reads Checks[0]
	res, err := v.Check(plans)
	if err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("err = %v, want a contained worker panic", err)
	}
	if res[0].Done {
		t.Fatal("the plan that panicked is marked done")
	}
	plans[0] = good
	res, err = v.Check(plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !res[i].Done {
			t.Fatalf("plan %d not done on the check after the panic", i)
		}
	}
}
