// White-box tests of what a version keeps: its build, for as long as it is
// reachable and no longer; a retained manager that stays bounded under
// queries; and a key derivation that fingerprints each prefix once.
package serve

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/fault"
	"github.com/yu-verify/yu/internal/gen"
)

// scaled is a soak count: as given, a tenth of it under -short.
func scaled(n int) int {
	if testing.Short() {
		return n / 10
	}
	return n
}

// soakInputs are the two specs the endurance tests run on, each with a
// portfolio its text form can name.
func soakInputs(t *testing.T) map[string][2]string {
	t.Helper()
	motivating, err := os.ReadFile(filepath.Join("..", "..", "testdata", "motivating.yu"))
	if err != nil {
		t.Fatal(err)
	}
	spec, wan := WANText(t, 20, 40, 10, 200, 5)
	pfx := gen.Prefixes(spec)[0].String()
	return map[string][2]string{
		"motivating": {string(motivating), "tlp util 0.95\ntlp link C-E max 95\ntlp delivered 100.0.0.0/24 min 70\ntlp link D-E max 105 if-failed B-D\n"},
		"wan-20":     {wan, "tlp util 0.9\ntlp delivered " + pfx + " min 1\ntlp ratio " + pfx + " min 0.5\n"},
	}
}

// TestEnduranceQueriesOnOneVersion (ROADMAP 4c, a): hundreds of portfolio
// queries on one version run one build, keep the retained manager's live
// nodes within 4× what the build left (floor 64 K) — across forced
// collections too — and the last answer is the first.
func TestEnduranceQueriesOnOneVersion(t *testing.T) {
	for name, in := range soakInputs(t) {
		t.Run(name, func(t *testing.T) {
			s := NewServer(Config{K: 1, OverloadFactor: 0.95})
			if _, err := s.LoadSpecText(in[0]); err != nil {
				t.Fatal(err)
			}
			if res, err := s.Report(); err != nil || res.Err != nil {
				t.Fatalf("report: %v %v", err, res.Err)
			}
			b := s.cur.Load().build
			limit := max(4*b.LiveNodes(), 64<<10)
			var first string
			for i := 0; i < scaled(500); i++ {
				if i%50 == 49 {
					collectBeforeEval.Add(1)
				}
				res, err := s.EvalPortfolioCtx(context.Background(), in[1])
				if i%50 == 49 {
					collectBeforeEval.Add(-1)
				}
				if err != nil || res.Err != nil {
					t.Fatalf("query %d: %v %v", i, err, res.Err)
				}
				if i == 0 {
					first = res.Text
				} else if res.Text != first {
					t.Fatalf("query %d differs from the first\n--- first\n%s--- got\n%s", i, first, res.Text)
				}
				if live := b.LiveNodes(); live > limit {
					t.Fatalf("query %d: %d live nodes in the retained manager, limit %d", i, live, limit)
				}
			}
			c := s.reg.Snapshot().Counters
			if c["serve.builds"] != 1 || c["serve.tlp_retained"] != int64(scaled(500)) {
				t.Errorf("builds=%d tlp_retained=%d after %d queries on one version, want 1 and %d",
					c["serve.builds"], c["serve.tlp_retained"], scaled(500), scaled(500))
			}
		})
	}
}

// TestSupersededVersionIsCollected (ROADMAP 4c, c): a version superseded
// while its own verification is still running finishes, answers the readers
// that pinned it — report and portfolio both — and its build becomes
// unreachable once they have returned: lifetime by reachability, no release
// call to forget.
func TestSupersededVersionIsCollected(t *testing.T) {
	for name, in := range soakInputs(t) {
		t.Run(name, func(t *testing.T) {
			defer fault.Reset()
			s := NewServer(Config{K: 1})
			id1, err := s.LoadSpecText(in[0])
			if err != nil {
				t.Fatal(err)
			}
			text1, _ := s.SpecText()
			// The first verification dawdles at its start; the delta lands meanwhile.
			if err := fault.Set("serve.verify.run:delay=500@1"); err != nil {
				t.Fatal(err)
			}
			type answer struct {
				rep RunResult
				tlp TLPResult
				err error
			}
			v1 := s.cur.Load()
			answers := make(chan answer, 2)
			go func(v *version) {
				err := v.await(context.Background())
				answers <- answer{rep: v.result, err: err}
			}(v1)
			go func() {
				res, err := s.EvalPortfolioCtx(context.Background(), in[1])
				answers <- answer{tlp: res, err: err}
			}()
			// The portfolio reader counts itself once it has pinned its version.
			for s.reg.Snapshot().Counters["serve.tlp_requests"] == 0 {
				time.Sleep(time.Millisecond)
			}
			if _, err := s.ApplyDeltas([]Delta{{Op: "add-static", Router: v1.spec.Net.Routers[0].Name, Prefix: "55.0.0.0/8", Discard: true}}); err != nil {
				t.Fatal(err)
			}
			if s.Version() == id1 {
				t.Fatal("the delta published no version")
			}
			select {
			case <-v1.done:
				t.Fatal("version 1 finished verifying before it was superseded: the delay did not take")
			default:
			}
			for i := 0; i < 2; i++ {
				a := <-answers
				switch {
				case a.err != nil:
					t.Fatalf("a reader of the superseded version: %v", a.err)
				case a.tlp.Result != nil:
					if a.tlp.Version != id1 || a.tlp.Err != nil {
						t.Fatalf("portfolio reader got version %d (err %v), pinned %d", a.tlp.Version, a.tlp.Err, id1)
					}
					n, _ := yu.LoadString(text1)
					props, err := config.ParsePortfolioString(in[1], n.Topology())
					if err != nil {
						t.Fatal(err)
					}
					cold, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: 1})
					if err != nil {
						t.Fatal(err)
					}
					if want := canon.FormatPortfolio(n.Topology(), cold); a.tlp.Text != want {
						t.Fatalf("superseded version's portfolio answer differs from cold\n--- want\n%s--- got\n%s", want, a.tlp.Text)
					}
				default:
					if a.rep.Version != id1 || a.rep.Err != nil {
						t.Fatalf("report reader got version %d (err %v), pinned %d", a.rep.Version, a.rep.Err, id1)
					}
					n, _ := yu.LoadString(text1)
					cold, err := n.Verify(yu.VerifyOptions{K: 1})
					if err != nil {
						t.Fatal(err)
					}
					if want := canon.FormatReport(n.Topology(), cold); a.rep.Text != want {
						t.Fatalf("superseded version's report differs from cold")
					}
				}
			}
			if v1.build == nil {
				t.Fatal("the superseded version kept no build")
			}
			freed := make(chan struct{})
			runtime.SetFinalizer(v1.build, func(*yu.Built) { close(freed) })
			v1 = nil
			deadline := time.After(10 * time.Second)
			for {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-deadline:
					t.Fatal("the superseded version's build is still reachable after its readers returned")
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}

// TestPrefixFingerprintsPinned pins the work of the key derivation the way
// routesim's TestCreatedNodesPinned pins nodes: a cold run fingerprints each
// distinct prefix its classes match once — 36 on the benchmark's daemon
// shape, however many classes (hundreds) and routers (60) there are — and a
// warm delta at most that many again.
func TestPrefixFingerprintsPinned(t *testing.T) {
	spec, text := WANText(t, 60, 120, 36, 1000, 10)
	matched := make(map[netip.Prefix]bool)
	for _, pfx := range gen.Prefixes(spec) {
		for _, f := range spec.Flows {
			if pfx.Contains(f.Dst) {
				matched[pfx] = true
				break
			}
		}
	}
	if len(matched) != 36 {
		t.Fatalf("the flows match %d distinct prefixes, want all 36 of the shape", len(matched))
	}
	s := NewServer(Config{K: 1, OverloadFactor: 1})
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	res, err := s.Report()
	if err != nil || res.Err != nil {
		t.Fatalf("report: %v %v", err, res.Err)
	}
	classes := res.Stats.CacheMisses
	if classes < 10*int64(len(matched)) {
		t.Fatalf("only %d classes: the shape no longer separates classes from prefixes", classes)
	}
	count := func() int64 { return s.reg.Snapshot().Counters["serve.prefix_fingerprints"] }
	cold := count()
	if cold != int64(len(matched)) {
		t.Errorf("a cold run of %d classes computed %d prefix fingerprints, want %d (one per distinct matched prefix)", classes, cold, len(matched))
	}
	// A static for an unrelated prefix: every class stays warm, every key is
	// derived again — from at most one fingerprint per matched prefix.
	if _, err := s.ApplyDeltas([]Delta{{Op: "add-static", Router: spec.Net.Routers[0].Name, Prefix: "55.0.0.0/8", Discard: true}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Report()
	if err != nil || res.Err != nil {
		t.Fatalf("report after the delta: %v %v", err, res.Err)
	}
	if res.Stats.CacheHits != classes || res.Stats.CacheMisses != 0 {
		t.Errorf("warm delta hits/misses = %d/%d, want %d/0", res.Stats.CacheHits, res.Stats.CacheMisses, classes)
	}
	if warm := count() - cold; warm <= 0 || warm > int64(len(matched)) {
		t.Errorf("a warm delta computed %d prefix fingerprints, want 1..%d", warm, len(matched))
	}
	if c := s.reg.Snapshot().Counters; c["serve.builds"] != 2 || c["serve.builds"] > c["serve.versions"] {
		t.Errorf("serve.builds = %d with %d versions, want 2 of 2", c["serve.builds"], c["serve.versions"])
	}
}
