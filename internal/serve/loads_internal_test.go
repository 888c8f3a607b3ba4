// White-box tests of what a portfolio query carries from the queries and
// builds before it: the loads whose classes did not move.
package serve

import (
	"context"
	"slices"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// linkPortfolio bounds every directed link's load, and nothing else: a query
// of it sums each link's load once.
const linkPortfolio = "tlp util 1\n"

// loadCounters are the server's load counters: loads carried, loads built.
func loadCounters(s *Server) (carried, built int64) {
	c := s.reg.Snapshot().Counters
	return c["serve.loads_carried"], c["serve.loads_built"]
}

// coldPortfolio is the canonical rendering of portfolio on a cold build of
// spec text under cfg: no store, no carrier.
func coldPortfolio(t *testing.T, text, portfolio string, cfg Config) string {
	t.Helper()
	spec, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatal(err)
	}
	props, err := config.ParsePortfolioString(portfolio, spec.Net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := yu.FromSpec(spec).VerifyPortfolio(props, yu.VerifyOptions{K: cfg.K, Mode: cfg.Mode, ModeSet: cfg.ModeSet})
	if err != nil {
		t.Fatal(err)
	}
	return canon.FormatPortfolio(spec.Net, res)
}

// TestLoadsCarriedByInputs: on the daemon-sized input, for every delta op, a
// query after the delta sums exactly the links whose ordered (class key,
// volume) list differs from the one they had at every query whose loads are
// still stored, and carries the rest — the query before the delta's, and
// after an undo the one before that too: an undone link cost carries every
// link. Each answer renders byte for byte as a cold run's.
func TestLoadsCarriedByInputs(t *testing.T) {
	spec, text, cfg := daemonSized(t)
	s := NewServer(cfg)
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	links := 2 * spec.Net.NumLinks()
	// query answers linkPortfolio on the current version and returns what it
	// carried and built, and the version's per-link class lists.
	query := func(what string) (carried, built int64, lists map[topo.DirLinkID][]linkInput) {
		t.Helper()
		c0, b0 := loadCounters(s)
		res, err := s.EvalPortfolioCtx(context.Background(), linkPortfolio)
		if err != nil || res.Err != nil {
			t.Fatalf("%s: %v %v", what, err, res.Err)
		}
		c1, b1 := loadCounters(s)
		text, _ := s.SpecText()
		if cold := coldPortfolio(t, text, linkPortfolio, cfg); res.Text != cold {
			t.Fatalf("%s: the query renders\n%s\na cold run\n%s", what, res.Text, cold)
		}
		_, lists = recordClasses(t, text, cfg)
		return c1 - c0, b1 - b0, lists
	}
	apply := func(what string, ds []Delta) {
		t.Helper()
		if _, err := s.ApplyDeltas(ds); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, k := range deltaKinds(t, spec) {
		if k.setup != nil {
			apply(k.op+" (setup)", k.setup)
		}
		// Each op starts from an empty store of loads.
		s.loads.mu.Lock()
		s.loads.reset(nil)
		s.loads.mu.Unlock()
		carried, built, before := query(k.op + " (before)")
		if carried != 0 || built != int64(links) {
			t.Fatalf("%s (before): %d loads carried and %d built on an empty store, want all %d built", k.op, carried, built, links)
		}
		stored := []map[topo.DirLinkID][]linkInput{before}
		for step, ds := range [][]Delta{k.do, k.undo} {
			what := k.op + [...]string{"", " (undo)"}[step]
			apply(what, ds)
			carried, built, lists := query(what)
			want := 0
			for l := topo.DirLinkID(0); int(l) < links; l++ {
				for _, old := range stored {
					if slices.Equal(lists[l], old[l]) {
						want++
						break
					}
				}
			}
			if carried != int64(want) || carried+built != int64(links) {
				t.Errorf("%s: %d loads carried and %d built; want %d carried of %d", what, carried, built, want, links)
			}
			if k.op == "set-link-cost" && step == 1 && carried != int64(links) {
				t.Errorf("%s: %d of %d loads carried, want all: the link cost is back", what, carried, links)
			}
			t.Logf("%s: %d of %d loads carried", what, carried, links)
			stored = append(stored, lists)
		}
	}
}

// BenchmarkQueryAfterDelta times a portfolio query — every directed link's
// load and three delivered prefixes — right after one delta of each op on
// the daemon-sized input, the query before the delta's loads alone stored,
// and reports per op the loads it carried. Emptying the store, the query
// before the delta, the delta and its undo run untimed.
func BenchmarkQueryAfterDelta(b *testing.B) {
	spec, text, cfg := daemonSized(b)
	portfolio := linkPortfolio
	for _, f := range spec.Flows[:3] {
		portfolio += "tlp delivered " + f.Dst.String() + "/32 min 1\n"
	}
	for _, k := range deltaKinds(b, spec) {
		b.Run(k.op, func(b *testing.B) {
			s := NewServer(cfg)
			if _, err := s.LoadSpecText(text); err != nil {
				b.Fatal(err)
			}
			apply := func(ds []Delta) {
				if _, err := s.ApplyDeltas(ds); err != nil {
					b.Fatal(err)
				}
				if res, err := s.Report(); err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
			}
			query := func() {
				if res, err := s.EvalPortfolioCtx(context.Background(), portfolio); err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
			}
			if k.setup != nil {
				apply(k.setup)
			}
			var carried int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.loads.mu.Lock()
				s.loads.reset(nil)
				s.loads.mu.Unlock()
				query()
				apply(k.do)
				c0, _ := loadCounters(s)
				b.StartTimer()
				query()
				b.StopTimer()
				c1, _ := loadCounters(s)
				carried += c1 - c0
				apply(k.undo)
				b.StartTimer()
			}
			b.ReportMetric(float64(carried)/float64(b.N), "carried/op")
		})
	}
}
