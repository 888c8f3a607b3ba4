// Tests for the incremental daemon core: the delta-vs-cold byte-identity
// oracle over the checked-in scenarios (with exact warm-cache hit
// accounting), reload/query races, warm-state persistence, and delta
// atomicity. The package is external so the tests exercise exactly the
// surface cmd/yud and internal/difftest consume.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/serve"

	"net/http/httptest"
)

func readSpec(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// coldReport verifies text from scratch and renders the canonical report
// — the oracle every daemon answer is held to.
func coldReport(t *testing.T, text string) string {
	t.Helper()
	spec, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatalf("cold parse: %v", err)
	}
	rep, err := yu.FromSpec(spec).Verify(yu.VerifyOptions{})
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	return canon.FormatReport(spec.Net, rep)
}

func mustReport(t *testing.T, s *serve.Server) serve.RunResult {
	t.Helper()
	res, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("verify: %v", res.Err)
	}
	return res
}

// TestDeltaVsColdTestdata is the incremental-vs-cold oracle on the
// checked-in scenarios: after a delta, the daemon's report must be
// byte-identical to a cold verification of the final state, and the
// warm-cache hit/miss split must match the classes the delta dirtied.
func TestDeltaVsColdTestdata(t *testing.T) {
	cases := []struct {
		name       string
		file       string
		deltas     []serve.Delta
		wantHits   int64 // classes served warm after the delta
		wantMisses int64 // classes re-executed after the delta
	}{
		{
			// A discard static for an unrelated prefix on B touches no
			// class input surface: both classes must be served warm.
			name: "motivating/clean",
			file: "motivating.yu",
			deltas: []serve.Delta{
				{Op: "add-static", Router: "B", Prefix: "55.0.0.0/8", Discard: true},
			},
			wantHits: 2, wantMisses: 0,
		},
		{
			// A /32 covering only f1's destination splits the prefix
			// class: f1 re-executes, f2 stays warm.
			name: "motivating/split",
			file: "motivating.yu",
			deltas: []serve.Delta{
				{Op: "add-static", Router: "A", Prefix: "100.0.0.1/32", Discard: true},
			},
			wantHits: 1, wantMisses: 1,
		},
		{
			// Raising a link cost changes the global IGP state: every
			// class is dirty.
			name: "motivating/link-cost",
			file: "motivating.yu",
			deltas: []serve.Delta{
				{Op: "set-link-cost", A: "A", B: "B", Cost: 20000},
			},
			wantHits: 0, wantMisses: 2,
		},
		{
			name: "sranycast/clean",
			file: "sranycast.yu",
			deltas: []serve.Delta{
				{Op: "add-static", Router: "B1", Prefix: "9.9.9.0/24", Discard: true},
			},
			wantHits: 1, wantMisses: 0,
		},
		{
			name: "misconfig/clean",
			file: "misconfig.yu",
			deltas: []serve.Delta{
				{Op: "add-static", Router: "M2", Prefix: "7.0.0.0/8", Discard: true},
			},
			wantHits: 1, wantMisses: 0,
		},
		{
			// Removing the export-deny fixes the Figure 10 misconfig:
			// the service prefix reaches M1/M2 again, flipping the
			// verdict — the report must still match cold exactly.
			name: "misconfig/fix",
			file: "misconfig.yu",
			deltas: []serve.Delta{
				{Op: "remove-export-deny", Router: "D1", Neighbor: "10.200.0.1", Prefix: "10.1.0.0/26"},
				{Op: "remove-export-deny", Router: "D2", Neighbor: "10.200.1.1", Prefix: "10.1.0.0/26"},
			},
			wantHits: 0, wantMisses: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := readSpec(t, tc.file)
			s := serve.NewServer(serve.Config{})
			if _, err := s.LoadSpecText(raw); err != nil {
				t.Fatal(err)
			}
			// The initial (cold) daemon run must already match a cold
			// verification of the raw text — canonicalization must not
			// change semantics.
			first := mustReport(t, s)
			if got, want := first.Text, coldReport(t, raw); got != want {
				t.Fatalf("initial daemon report != cold report of raw spec:\n--- daemon\n%s\n--- cold\n%s", got, want)
			}
			if first.Stats.CacheHits != 0 {
				t.Fatalf("cold daemon run claims %d cache hits", first.Stats.CacheHits)
			}

			id, err := s.ApplyDeltas(tc.deltas)
			if err != nil {
				t.Fatal(err)
			}
			res := mustReport(t, s)
			if res.Version != id {
				t.Fatalf("report cites version %d, delta published %d", res.Version, id)
			}
			if res.Stats.CacheHits != tc.wantHits || res.Stats.CacheMisses != tc.wantMisses {
				t.Fatalf("hits/misses = %d/%d, want %d/%d",
					res.Stats.CacheHits, res.Stats.CacheMisses, tc.wantHits, tc.wantMisses)
			}
			final, _ := s.SpecText()
			if got, want := res.Text, coldReport(t, final); got != want {
				t.Fatalf("incremental report != cold report of final state:\n--- incremental\n%s\n--- cold\n%s", got, want)
			}
			snap := s.Metrics().Snapshot()
			if snap.Counters["serve.class_cache_hits"] != tc.wantHits {
				t.Fatalf("serve.class_cache_hits = %d, want %d",
					snap.Counters["serve.class_cache_hits"], tc.wantHits)
			}
			if tc.wantMisses > 0 && snap.Counters["serve.dirty_classes"] != tc.wantMisses {
				t.Fatalf("serve.dirty_classes = %d, want %d",
					snap.Counters["serve.dirty_classes"], tc.wantMisses)
			}
		})
	}
}

// TestDeltaAtomicity: a batch with one invalid delta must leave the
// current version untouched, even if earlier deltas in the batch were
// valid.
func TestDeltaAtomicity(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	before, v1 := s.SpecText()
	_, err := s.ApplyDeltas([]serve.Delta{
		{Op: "add-static", Router: "B", Prefix: "55.0.0.0/8", Discard: true}, // valid
		{Op: "add-static", Router: "NOPE", Prefix: "55.0.0.0/8", Discard: true},
	})
	if err == nil {
		t.Fatal("batch with invalid delta accepted")
	}
	after, v2 := s.SpecText()
	if v1 != v2 || before != after {
		t.Fatal("rejected batch mutated the published version")
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["serve.deltas_rejected"] != 2 {
		t.Fatalf("serve.deltas_rejected = %d, want 2 (whole batch)", snap.Counters["serve.deltas_rejected"])
	}
}

// TestDeltaRejectsStaticViaRemoteLink: a static route whose next hop is an
// interface on a link its router is not on fails every run, so a delta
// that adds one is rejected like an unknown router: no version is
// published and nothing is journaled.
func TestDeltaRejectsStaticViaRemoteLink(t *testing.T) {
	dir := t.TempDir()
	s := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	journal := func() []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "delta.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before, v1 := s.SpecText()
	wal1 := journal()
	// 4.5.0.2 is E's end of D-E; A is on neither end.
	_, err := s.ApplyDeltas([]serve.Delta{{Op: "add-static", Router: "A", Prefix: "99.0.0.0/8", NextHop: "4.5.0.2"}})
	if err == nil || !strings.Contains(err.Error(), "not directly connected") {
		t.Fatalf("static via another router's link: err = %v, want it rejected as not directly connected", err)
	}
	if after, v2 := s.SpecText(); v1 != v2 || before != after {
		t.Fatal("the rejected delta published a version")
	}
	if got := s.Metrics().Snapshot().Counters["serve.deltas_rejected"]; got != 1 {
		t.Fatalf("serve.deltas_rejected = %d, want 1", got)
	}
	if !bytes.Equal(journal(), wal1) {
		t.Fatal("the rejected delta was journaled")
	}
}

// TestDeltaRoundTrip: an add followed by its remove must return to the
// exact canonical text, and re-verification is then fully warm.
func TestDeltaRoundTrip(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	orig, _ := s.SpecText()
	origRes := mustReport(t, s)
	if _, err := s.ApplyDeltas([]serve.Delta{
		{Op: "add-static", Router: "A", Prefix: "100.0.0.1/32", Discard: true},
	}); err != nil {
		t.Fatal(err)
	}
	mustReport(t, s)
	if _, err := s.ApplyDeltas([]serve.Delta{
		{Op: "remove-static", Router: "A", Prefix: "100.0.0.1/32"},
	}); err != nil {
		t.Fatal(err)
	}
	back, _ := s.SpecText()
	if back != orig {
		t.Fatalf("add+remove did not round-trip the canonical text:\n--- orig\n%s\n--- back\n%s", orig, back)
	}
	res := mustReport(t, s)
	if res.Stats.CacheMisses != 0 || res.Stats.CacheHits != 2 {
		t.Fatalf("round-trip re-verify hits/misses = %d/%d, want 2/0",
			res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if res.Text != origRes.Text {
		t.Fatal("round-trip report differs from the original")
	}
}

// TestWarmStateRestart: save, build a fresh server on the same state
// directory, and re-verify — every class must come from the warm cache
// and the report must be byte-identical. State directories written before
// cost-hint feedback was retired also hold a costhints.json; the daemon
// must neither read, report, rewrite nor remove it.
func TestWarmStateRestart(t *testing.T) {
	raw := readSpec(t, "motivating.yu")
	for name, stale := range map[string]string{
		"clean":         "",
		"stale-hints":   "{\n  \"A|100.0.0.1|0\": 25,\n  \"B|100.0.0.2|5\": 147\n}\n",
		"garbage-hints": "\x00\xffnot json",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := serve.NewServer(serve.Config{StatePath: dir})
			if _, err := s1.LoadSpecText(raw); err != nil {
				t.Fatal(err)
			}
			res1 := mustReport(t, s1)
			if err := s1.SaveState(); err != nil {
				t.Fatal(err)
			}
			want := []string{"delta.wal", "stfcache.bin"}
			if got := dirNames(t, dir); !slices.Equal(got, want) {
				t.Fatalf("state dir holds %v after SaveState, want %v", got, want)
			}
			hintsPath := filepath.Join(dir, "costhints.json")
			if stale != "" {
				if err := os.WriteFile(hintsPath, []byte(stale), 0o644); err != nil {
					t.Fatal(err)
				}
				want = append([]string{"costhints.json"}, want...)
			}

			var logged bytes.Buffer
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			s2 := serve.NewServer(serve.Config{StatePath: dir})
			if _, err := s2.LoadSpecText(raw); err != nil {
				t.Fatal(err)
			}
			res2 := mustReport(t, s2)
			if res2.Stats.CacheMisses != 0 || res2.Stats.CacheHits != 2 {
				t.Fatalf("restarted daemon hits/misses = %d/%d, want 2/0",
					res2.Stats.CacheHits, res2.Stats.CacheMisses)
			}
			if res2.Text != res1.Text {
				t.Fatalf("restarted daemon report differs:\n--- before\n%s\n--- after\n%s", res1.Text, res2.Text)
			}
			if err := s2.SaveState(); err != nil {
				t.Fatal(err)
			}
			if logged.Len() != 0 {
				t.Fatalf("warm restart logged:\n%s", logged.String())
			}
			if got := dirNames(t, dir); !slices.Equal(got, want) {
				t.Fatalf("state dir holds %v after the restart's SaveState, want %v", got, want)
			}
			if stale != "" {
				if data, err := os.ReadFile(hintsPath); err != nil || string(data) != stale {
					t.Fatalf("leftover costhints.json was touched: %q, %v", data, err)
				}
			}
		})
	}
}

// dirNames lists the file names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestWarmStateCorrupt: a truncated or garbage state file must log and
// start cold, never fail or panic.
func TestWarmStateCorrupt(t *testing.T) {
	dir := t.TempDir()
	raw := readSpec(t, "misconfig.yu")
	s1 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s1.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	mustReport(t, s1)
	if err := s1.SaveState(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stfcache.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(pos int) []byte {
		out := append([]byte(nil), data...)
		out[pos] ^= 0x01
		return out
	}
	for name, mut := range map[string][]byte{
		"garbage":   []byte("not a warm cache at all"),
		"truncated": data[:len(data)/2],
		"badmagic":  append([]byte("YUWARM9\n"), data[8:]...),
		// Single bit flips: the CRC frames must catch corruption that
		// structural validation alone could let through.
		"bitflip-frame-start": flip(16),
		"bitflip-middle":      flip(len(data) / 2),
		"bitflip-tail":        flip(len(data) - 2),
	} {
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := serve.NewServer(serve.Config{StatePath: dir})
		if _, err := s2.LoadSpecText(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := mustReport(t, s2)
		if res.Stats.CacheHits != 0 {
			t.Fatalf("%s: corrupt state produced %d cache hits", name, res.Stats.CacheHits)
		}
		if res.Text != coldReport(t, raw) {
			t.Fatalf("%s: report differs after corrupt state", name)
		}
	}
}

// TestWarmStateOldFrame: a stfcache.bin in an earlier frame — YUWARM1, keys
// of the derivation that hashed every router's rows once per class, or
// YUWARM2, keys folding a structural hash of every IS-IS guard, neither of
// which any run derives any more — is discarded at load with the usual log
// line, never carried as dead weight, and the next SaveState replaces it
// with a YUWARM3 file a restart resumes warm from.
func TestWarmStateOldFrame(t *testing.T) {
	for _, old := range []string{"YUWARM1", "YUWARM2"} {
		t.Run(old, func(t *testing.T) {
			dir := t.TempDir()
			raw := readSpec(t, "motivating.yu")
			s1 := serve.NewServer(serve.Config{StatePath: dir})
			if _, err := s1.LoadSpecText(raw); err != nil {
				t.Fatal(err)
			}
			mustReport(t, s1)
			if err := s1.SaveState(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "stfcache.bin")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("YUWARM3\n")) {
				t.Fatalf("SaveState wrote magic %q, want YUWARM3", data[:8])
			}
			// The same entries under the old magic: what an upgraded daemon finds.
			if err := os.WriteFile(path, append([]byte(old+"\n"), data[8:]...), 0o644); err != nil {
				t.Fatal(err)
			}

			var logged bytes.Buffer
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			s2 := serve.NewServer(serve.Config{StatePath: dir})
			if !strings.Contains(logged.String(), "bad magic") || !strings.Contains(logged.String(), old) || !strings.Contains(logged.String(), "starting cold") {
				t.Fatalf("loading a %s file logged %q, want the bad magic and \"starting cold\"", old, logged.String())
			}
			if n := s2.StoreLen(); n != 0 {
				t.Fatalf("a %s file left %d entries in the store", old, n)
			}
			if _, err := s2.LoadSpecText(raw); err != nil {
				t.Fatal(err)
			}
			res := mustReport(t, s2)
			if res.Stats.CacheHits != 0 || res.Text != coldReport(t, raw) {
				t.Fatalf("after a discarded %s file: %d cache hits, report equal to cold: %v", old, res.Stats.CacheHits, res.Text == coldReport(t, raw))
			}
			if err := s2.SaveState(); err != nil {
				t.Fatal(err)
			}
			if data, err = os.ReadFile(path); err != nil || !bytes.HasPrefix(data, []byte("YUWARM3\n")) {
				t.Fatalf("SaveState left magic %q (%v), want the %s file replaced", data[:8], err, old)
			}
			s3 := serve.NewServer(serve.Config{StatePath: dir})
			if _, err := s3.LoadSpecText(raw); err != nil {
				t.Fatal(err)
			}
			if res := mustReport(t, s3); res.Stats.CacheHits != 2 || res.Stats.CacheMisses != 0 {
				t.Fatalf("restart on the replaced file: hits/misses = %d/%d, want 2/0", res.Stats.CacheHits, res.Stats.CacheMisses)
			}
		})
	}
}

// TestWarmStateFromEarlierBuild: testdata/stfcache.bin is the warm cache a
// yud of the YUWARM3 key derivation wrote after verifying testdata/wan-1.yu
// (`yud -state DIR testdata/wan-1.yu`, stopped by SIGINT once the initial
// verification is logged). A daemon started on it resumes fully warm — every class
// a cache hit, none a miss — with the report of a cold run, and saving its
// store again writes the file byte for byte; so does a cold daemon that
// executes and seals every class itself: the YUWARM3 layout is the one it
// always was.
func TestWarmStateFromEarlierBuild(t *testing.T) {
	saved, err := os.ReadFile(filepath.Join("testdata", "stfcache.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stfcache.bin"), saved, 0o644); err != nil {
		t.Fatal(err)
	}
	raw := readSpec(t, "wan-1.yu")
	spec, err := config.ParseSpecString(raw)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := yu.FromSpec(spec).Verify(yu.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	res := mustReport(t, s)
	c := s.Metrics().Snapshot().Counters
	if hits, misses := c["serve.class_cache_hits"], c["serve.class_cache_misses"]; hits != int64(cold.FlowsExecuted) || misses != 0 {
		t.Fatalf("serve.class_cache_hits %d, misses %d; want %d classes, 0", hits, misses, cold.FlowsExecuted)
	}
	if want := canon.FormatReport(spec.Net, cold); res.Text != want {
		t.Fatalf("warm report differs from the cold one:\n--- warm\n%s\n--- cold\n%s", res.Text, want)
	}
	if err := s.SaveState(); err != nil {
		t.Fatal(err)
	}
	resaved, err := os.ReadFile(filepath.Join(dir, "stfcache.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved, saved) {
		t.Fatalf("re-saving the loaded store wrote %d bytes that differ from the %d it loaded", len(resaved), len(saved))
	}

	coldDir := t.TempDir()
	cs := serve.NewServer(serve.Config{StatePath: coldDir})
	if _, err := cs.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	mustReport(t, cs)
	if err := cs.SaveState(); err != nil {
		t.Fatal(err)
	}
	if fresh, err := os.ReadFile(filepath.Join(coldDir, "stfcache.bin")); err != nil || !bytes.Equal(fresh, saved) {
		t.Fatalf("a cold daemon saved %d bytes that differ from the %d the earlier build saved (%v)", len(fresh), len(saved), err)
	}
}

// TestCanonicalTextParsedOnce: a version built from canonical text — which
// is parsed once, being its own fixpoint — and one built from a
// non-canonical spelling of it — re-parsed from its canonical rendering —
// are the same version: equal text, byte-equal reports.
func TestCanonicalTextParsedOnce(t *testing.T) {
	for _, file := range []string{"motivating.yu", "misconfig.yu", "sranycast.yu", "wan-1.yu"} {
		raw := readSpec(t, file)
		loose := serve.NewServer(serve.Config{})
		if _, err := loose.LoadSpecText(raw); err != nil {
			t.Fatal(err)
		}
		canonical, _ := loose.SpecText()
		if canonical == raw {
			t.Fatalf("%s is already canonical: the case needs a non-canonical spelling", file)
		}
		strict := serve.NewServer(serve.Config{})
		if _, err := strict.LoadSpecText(canonical); err != nil {
			t.Fatalf("%s: canonical text: %v", file, err)
		}
		if got, _ := strict.SpecText(); got != canonical {
			t.Errorf("%s: canonical text is not its own version text", file)
		}
		a, b := mustReport(t, loose), mustReport(t, strict)
		if a.Text != b.Text {
			t.Errorf("%s: reports differ between the spellings\n--- non-canonical\n%s--- canonical\n%s", file, a.Text, b.Text)
		}
		if a.Text != coldReport(t, raw) {
			t.Errorf("%s: report differs from cold", file)
		}
	}
}

// TestReloadRace hammers /v1/report from several goroutines while deltas
// and reloads are applied. Every response must be internally consistent:
// one version, and the report text that belongs to exactly that version.
// Every delta request is timed under its op in the daemon's metrics.
func TestReloadRace(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	raw := readSpec(t, "motivating.yu")
	if _, err := s.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type resp struct {
		Version int64  `json:"version"`
		Report  string `json:"report"`
		Error   string `json:"error"`
	}
	var (
		mu   sync.Mutex
		seen = make(map[int64]string) // version -> report text
	)
	record := func(t *testing.T, r resp) {
		if r.Error != "" {
			t.Errorf("report error: %s", r.Error)
			return
		}
		if r.Version <= 0 {
			t.Errorf("response cites version %d", r.Version)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[r.Version]; ok && prev != r.Report {
			t.Errorf("version %d served two different reports", r.Version)
			return
		}
		seen[r.Version] = r.Report
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := http.Get(ts.URL + "/v1/report")
				if err != nil {
					t.Errorf("GET /v1/report: %v", err)
					return
				}
				body, _ := io.ReadAll(res.Body)
				res.Body.Close()
				var r resp
				if err := json.Unmarshal(body, &r); err != nil {
					t.Errorf("report body: %v", err)
					return
				}
				record(t, r)
			}
		}()
	}

	// Mutate under the readers: deltas and a full reload.
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"deltas":[{"op":"add-static","router":"B","prefix":"%d.0.0.0/8","discard":true}]}`, 50+i)
		res, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, res.StatusCode)
		}
	}
	// Each single-op delta request is timed under its op.
	if got := s.Metrics().Snapshot().TimersMS["serve.delta.add-static"]; got.Count != 4 || got.MS <= 0 {
		t.Fatalf("timer serve.delta.add-static = %+v, want 4 requests", got)
	}
	reload, err := json.Marshal(map[string]string{"spec": raw})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(reload)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", res.StatusCode)
	}
	close(done)
	wg.Wait()

	// Cross-check every observed version's report against a cold run of
	// that version's final text where we still know it: the last version
	// is the reloaded original.
	if len(seen) == 0 {
		t.Fatal("no responses recorded")
	}
	cold := coldReport(t, raw)
	final := mustReport(t, s)
	if final.Text != cold {
		t.Fatal("final reloaded report differs from cold")
	}
}

// TestHTTPNoSpec: endpoints respond 409 before any spec is loaded.
func TestHTTPNoSpec(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("report without spec: status %d, want 409", res.StatusCode)
	}
}

// TestStoreOverflowKeepsWorkingSet: two link-cost deltas in a row — each
// invalidates every class — overflow a warm store sized for two builds.
// A version's own classes survive the overflow: the next delta on the same
// topology executes nothing, and the store stays within CacheLimit.
func TestStoreOverflowKeepsWorkingSet(t *testing.T) {
	spec, text := serve.WANText(t, 20, 40, 10, 200, 5)
	probe := serve.NewServer(serve.Config{K: 1, OverloadFactor: 1})
	if _, err := probe.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	classes := int(mustReport(t, probe).Stats.CacheMisses)
	limit := 2*classes + classes/4

	s := serve.NewServer(serve.Config{K: 1, OverloadFactor: 1, CacheLimit: limit})
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	mustReport(t, s)
	link := spec.Net.Link(0)
	a, b := spec.Net.Router(link.A).Name, spec.Net.Router(link.B).Name
	for i := int64(1); i <= 2; i++ {
		if _, err := s.ApplyDeltas([]serve.Delta{{Op: "set-link-cost", A: a, B: b, Cost: link.CostAB + 7*i}}); err != nil {
			t.Fatal(err)
		}
		if res := mustReport(t, s); 2*int(res.Stats.CacheMisses) > limit {
			t.Fatalf("a build executed %d classes, more than half of CacheLimit %d", res.Stats.CacheMisses, limit)
		}
	}
	if n := s.Metrics().Snapshot().Counters["serve.cache_evictions"]; n == 0 {
		t.Fatal("three builds' classes did not overflow the store")
	}
	if _, err := s.ApplyDeltas([]serve.Delta{{Op: "add-static", Router: spec.Net.Routers[0].Name, Prefix: "55.0.0.0/8", Discard: true}}); err != nil {
		t.Fatal(err)
	}
	res := mustReport(t, s)
	if res.Stats.CacheMisses != 0 || res.Stats.CacheHits == 0 {
		t.Fatalf("after the overflow: %d hits, %d misses; want every class from the store", res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if n := s.StoreLen(); n > limit {
		t.Fatalf("the store holds %d entries, CacheLimit %d", n, limit)
	}
}
