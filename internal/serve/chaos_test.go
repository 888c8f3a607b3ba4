// Crash-consistency and robustness tests (DESIGN.md §15): WAL replay
// after a simulated kill, bit-flip corruption, the fault-injection chaos
// oracle (crash the daemon at every injection point a delta workload
// crosses, restart, and require the recovered report to byte-match a
// cold verification of a committed prefix), and the HTTP serving
// hardening (panic recovery, admission control, deadlines, body limits).
//
// Tests here arm the process-global fault registry; none may run in
// parallel with each other or with anything else that crosses injection
// points.
package serve_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/difftest"
	"github.com/yu-verify/yu/internal/fault"
	"github.com/yu-verify/yu/internal/serve"
)

// TestWALReplay: a daemon killed without any shutdown (no SaveState, no
// WAL close) must come back at exactly the pre-crash version, with every
// delta batch replayed from the journal.
func TestWALReplay(t *testing.T) {
	dir := t.TempDir()
	raw := readSpec(t, "motivating.yu")

	s1 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s1.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyDeltas([]serve.Delta{
		{Op: "add-static", Router: "B", Prefix: "55.0.0.0/8", Discard: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ApplyDeltas([]serve.Delta{
		{Op: "set-link-cost", A: "A", B: "B", Cost: 20000},
	}); err != nil {
		t.Fatal(err)
	}
	wantText, _ := s1.SpecText()
	wantReport := mustReport(t, s1).Text
	// s1 is now abandoned mid-flight: nothing was saved or closed.

	s2 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s2.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	gotText, v := s2.SpecText()
	if gotText != wantText {
		t.Fatalf("recovered spec differs from pre-crash spec:\n--- want\n%s\n--- got\n%s", wantText, gotText)
	}
	if v != 3 {
		t.Fatalf("recovered version = %d, want 3 (base + 2 replayed batches)", v)
	}
	if got := s2.Metrics().Snapshot().Counters["serve.wal_replayed"]; got != 2 {
		t.Fatalf("serve.wal_replayed = %d, want 2", got)
	}
	if got := mustReport(t, s2).Text; got != wantReport {
		t.Fatalf("recovered report differs:\n--- want\n%s\n--- got\n%s", wantReport, got)
	}

	// Deltas applied after recovery extend the same journal: a second
	// kill+restart replays all three batches.
	if _, err := s2.ApplyDeltas([]serve.Delta{
		{Op: "add-static", Router: "A", Prefix: "44.0.0.0/8", Discard: true},
	}); err != nil {
		t.Fatal(err)
	}
	want3, _ := s2.SpecText()
	s3 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s3.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	if got, _ := s3.SpecText(); got != want3 {
		t.Fatal("second recovery lost the post-recovery delta")
	}
	if got := s3.Metrics().Snapshot().Counters["serve.wal_replayed"]; got != 3 {
		t.Fatalf("serve.wal_replayed = %d, want 3", got)
	}

	// A full reload supersedes the journal: restart after it recovers the
	// reloaded base, not the replayed head.
	if _, err := s3.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	base, _ := s3.SpecText()
	s4 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s4.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	if got, _ := s4.SpecText(); got != base {
		t.Fatal("reload did not reset the journal")
	}
}

// TestWALBitFlip: corruption anywhere in the journal must never produce
// a wrong recovery — a flipped record yields the longest clean prefix, a
// flipped header yields the base, and the report always byte-matches a
// cold verification of whatever was recovered.
func TestWALBitFlip(t *testing.T) {
	dir := t.TempDir()
	raw := readSpec(t, "motivating.yu")
	s1 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s1.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	base, _ := s1.SpecText()
	if _, err := s1.ApplyDeltas([]serve.Delta{
		{Op: "add-static", Router: "B", Prefix: "55.0.0.0/8", Discard: true},
	}); err != nil {
		t.Fatal(err)
	}
	after1, _ := s1.SpecText()
	if _, err := s1.ApplyDeltas([]serve.Delta{
		{Op: "set-link-cost", A: "A", B: "B", Cost: 20000},
	}); err != nil {
		t.Fatal(err)
	}
	after2, _ := s1.SpecText()
	valid := map[string]string{base: "base", after1: "batch 1", after2: "batch 2"}

	path := filepath.Join(dir, "delta.wal")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sawPrefix := false
	for pos := 0; pos < len(pristine); pos += 11 {
		data := append([]byte(nil), pristine...)
		data[pos] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := serve.NewServer(serve.Config{StatePath: dir})
		if _, err := s2.LoadSpecText(raw); err != nil {
			t.Fatalf("flip at %d: %v", pos, err)
		}
		got, _ := s2.SpecText()
		name, ok := valid[got]
		if !ok {
			t.Fatalf("flip at %d: recovered a state that never existed:\n%s", pos, got)
		}
		if name != "batch 2" {
			sawPrefix = true
		}
		if res := mustReport(t, s2); res.Text != coldReport(t, got) {
			t.Fatalf("flip at %d: recovered report differs from cold verify of %s", pos, name)
		}
	}
	if !sawPrefix {
		t.Fatal("no flip ever truncated the journal — corruption detection untested")
	}
	// Restore the pristine journal; it must still replay fully.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := serve.NewServer(serve.Config{StatePath: dir})
	if _, err := s3.LoadSpecText(raw); err != nil {
		t.Fatal(err)
	}
	if got, _ := s3.SpecText(); got != after2 {
		t.Fatal("pristine journal no longer replays fully")
	}
}

// TestChaosCrashRecovery is the kill/restart oracle: trace a delta
// workload to enumerate every injection point it crosses, then re-run it
// once per (point, crossing), crashing there; after each crash the
// restarted daemon must recover to some committed prefix of the batch
// sequence — never a torn or invented state — and its report must
// byte-match a cold verification of that prefix.
func TestChaosCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos oracle is slow")
	}
	c := difftest.MustNew(11, difftest.Options{MaxFlows: 2, MaxK: 1, LinkMode: true})
	text0, err := canon.FormatSpec(c.Spec)
	if err != nil {
		t.Fatal(err)
	}
	spec0, err := config.ParseSpecString(text0)
	if err != nil {
		t.Fatal(err)
	}
	all := difftest.GenDeltas(rand.New(rand.NewSource(11)), spec0, 4)
	batches := [][]serve.Delta{all[:2], all[2:3], all[3:]}
	cfg := func(dir string) serve.Config {
		return serve.Config{
			K: c.K, Mode: c.Mode, ModeSet: true,
			OverloadFactor: c.OverloadFactor, StatePath: dir,
		}
	}

	fault.PanicOnCrash()
	defer fault.SetCrashHandler(nil)
	defer fault.Reset()

	// workload replays the exact same step sequence every run (the
	// determinism the schedule enumeration depends on): load, batch 0,
	// verify+save, batches 1..n. A simulated kill (fault.Crash panic) is
	// absorbed; anything else propagates.
	workload := func(dir string) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(fault.Crash); !ok {
					panic(r)
				}
			}
		}()
		s := serve.NewServer(cfg(dir))
		if _, err := s.LoadSpecText(text0); err != nil {
			t.Fatalf("workload load: %v", err)
		}
		for i, b := range batches {
			if i == 1 {
				if res, err := s.Report(); err != nil || res.Err != nil {
					t.Fatalf("workload verify: %v / %v", err, res.Err)
				}
				if err := s.SaveState(); err != nil {
					t.Fatalf("workload save: %v", err)
				}
			}
			if _, err := s.ApplyDeltas(b); err != nil {
				t.Fatalf("workload batch %d: %v", i, err)
			}
		}
	}

	// Reference pass, traced: collects the committed-prefix texts and the
	// schedule of injection-point crossings.
	fault.Reset()
	fault.StartTrace()
	refDir := t.TempDir()
	ref := serve.NewServer(cfg(refDir))
	if _, err := ref.LoadSpecText(text0); err != nil {
		t.Fatal(err)
	}
	prefixes := []string{}
	txt, _ := ref.SpecText()
	prefixes = append(prefixes, txt)
	for i, b := range batches {
		if i == 1 {
			if res, err := ref.Report(); err != nil || res.Err != nil {
				t.Fatalf("reference verify: %v / %v", err, res.Err)
			}
			if err := ref.SaveState(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ref.ApplyDeltas(b); err != nil {
			t.Fatalf("reference batch %d: %v", i, err)
		}
		txt, _ = ref.SpecText()
		prefixes = append(prefixes, txt)
	}
	counts := map[string]int{}
	for _, p := range fault.StopTrace() {
		counts[p]++
	}

	// Only points crossed on the mutation path (the caller's goroutine)
	// may be crashed: a crash on the verification goroutine would escape
	// the workload's recover and kill the test, which is exactly why the
	// daemon contains verify panics separately (TestPanicRecovery).
	crashable := []string{
		"serve.delta.apply", "serve.wal.append", "serve.wal.sync",
		"serve.wal.publish", "serve.persist.begin", "serve.persist.rename",
		"mtbdd.snapshot.encode",
	}
	pick := func(n int) []int {
		if n <= 3 {
			out := []int{}
			for k := 1; k <= n; k++ {
				out = append(out, k)
			}
			return out
		}
		return []int{1, n/2 + 1, n}
	}
	var schedules []string
	for _, p := range crashable {
		if counts[p] == 0 {
			t.Errorf("point %s never crossed by the workload — oracle coverage lost", p)
			continue
		}
		for _, k := range pick(counts[p]) {
			schedules = append(schedules, fmt.Sprintf("%s:crash@%d", p, k))
		}
	}
	// Torn frames: crash mid-write at several truncation lengths.
	for _, k := range pick(counts["serve.wal.append"]) {
		for _, n := range []int{0, 3, 12} {
			schedules = append(schedules, fmt.Sprintf("serve.wal.write:partial=%d@%d", n, k))
		}
	}

	prefixSet := map[string]int{}
	for i, p := range prefixes {
		prefixSet[p] = i
	}
	coldCache := map[string]string{}
	coldOf := func(text string) string {
		if r, ok := coldCache[text]; ok {
			return r
		}
		spec, err := config.ParseSpecString(text)
		if err != nil {
			t.Fatalf("cold parse: %v", err)
		}
		rep, err := yu.FromSpec(spec).Verify(yu.VerifyOptions{
			K: c.K, Mode: c.Mode, ModeSet: true,
			OverloadFactor: c.OverloadFactor,
		})
		if err != nil {
			t.Fatalf("cold verify: %v", err)
		}
		r := canon.FormatReport(spec.Net, rep)
		coldCache[text] = r
		return r
	}

	// restart brings a daemon up on the crashed state; ok=false reports a
	// simulated kill during recovery itself (replay-fault schedules).
	restart := func(dir string) (s *serve.Server, text string, ok bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, okc := r.(fault.Crash); !okc {
					panic(r)
				}
				ok = false
			}
		}()
		s = serve.NewServer(cfg(dir))
		if _, err := s.LoadSpecText(text0); err != nil {
			t.Fatalf("restart: %v", err)
		}
		text, _ = s.SpecText()
		return s, text, true
	}

	check := func(schedule, replayFault string) {
		dir := t.TempDir()
		if err := fault.Set(schedule); err != nil {
			t.Fatalf("%s: %v", schedule, err)
		}
		workload(dir)
		if replayFault != "" {
			if err := fault.Set(replayFault); err != nil {
				t.Fatal(err)
			}
		} else {
			fault.Reset()
		}
		s2, text, ok := restart(dir)
		if !ok { // killed during replay: the journal survives, go again
			fault.Reset()
			if s2, text, ok = restart(dir); !ok {
				t.Fatalf("%s + %s: second restart crashed with faults disarmed", schedule, replayFault)
			}
		}
		fault.Reset()
		label := schedule
		if replayFault != "" {
			label += " + " + replayFault
		}
		i, isPrefix := prefixSet[text]
		if !isPrefix {
			t.Fatalf("%s: recovered a state that is no committed prefix:\n%s", label, text)
		}
		res, err := s2.Report()
		if err != nil {
			t.Fatalf("%s: recovered report: %v", label, err)
		}
		if res.Err != nil {
			t.Fatalf("%s: recovered verify: %v", label, res.Err)
		}
		if res.Text != coldOf(text) {
			t.Fatalf("%s: recovered report differs from cold verify of prefix %d", label, i)
		}
	}

	for _, schedule := range schedules {
		check(schedule, "")
	}
	// Kill or fail the daemon during WAL replay itself: run the workload
	// clean, then crash (or inject an error) at each replayed record.
	for k := 1; k <= len(batches); k++ {
		check("", fmt.Sprintf("serve.wal.replay:crash@%d", k))
		check("", fmt.Sprintf("serve.wal.replay:error@%d", k))
	}
	t.Logf("chaos oracle: %d crash schedules + %d replay schedules over %d prefixes",
		len(schedules), 2*len(batches), len(prefixes))
}

// TestPanicRecovery: a panicking request answers 500 and the daemon
// keeps serving.
func TestPanicRecovery(t *testing.T) {
	defer fault.Reset()
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := fault.Set("serve.http.request:panic@1"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Fatalf("500 body does not mention the panic: %s", body)
	}
	if got := s.Metrics().Snapshot().Counters["serve.panics"]; got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}
	resp2, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: status %d", resp2.StatusCode)
	}
}

// TestAdmissionControl: beyond MaxInFlight concurrent requests the
// daemon sheds load with 503 + Retry-After; health probes stay exempt.
func TestAdmissionControl(t *testing.T) {
	defer fault.Reset()
	if err := fault.Set("serve.verify.run:delay=500"); err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(serve.Config{MaxInFlight: 1})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/report")
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the slow request occupy the slot

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := s.Metrics().Snapshot().Counters["serve.rejected"]; got < 1 {
		t.Fatalf("serve.rejected = %d, want >= 1", got)
	}
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz refused under load: status %d", hz.StatusCode)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted slow request: status %d", code)
	}
}

// TestRequestTimeout: a request deadline answers 504 while the
// verification keeps running and serves the next request from the same
// shared computation.
func TestRequestTimeout(t *testing.T) {
	defer fault.Reset()
	if err := fault.Set("serve.verify.run:delay=400"); err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(serve.Config{RequestTimeout: 50 * time.Millisecond})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d, want 504", resp.StatusCode)
	}
	if got := s.Metrics().Snapshot().Counters["serve.timeouts"]; got != 1 {
		t.Fatalf("serve.timeouts = %d, want 1", got)
	}
	time.Sleep(600 * time.Millisecond) // let the shared computation finish
	resp2, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-computation request: status %d, want 200", resp2.StatusCode)
	}
}

// TestMaxBodyBytes: oversized request bodies answer 413 without being
// read to the end.
func TestMaxBodyBytes(t *testing.T) {
	s := serve.NewServer(serve.Config{MaxBodyBytes: 1024})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := `{"deltas": [{"op": "add-static", "router": "` + strings.Repeat("x", 4096) + `"}]}`
	resp, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	ok := `{"deltas": [{"op": "add-static", "router": "B", "prefix": "55.0.0.0/8", "discard": true}]}`
	resp2, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("normal body after 413: status %d, want 200", resp2.StatusCode)
	}
}
