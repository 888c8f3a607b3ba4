package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

const testSpec = "../../testdata/motivating.yu"

func TestDaemonFlagValidation(t *testing.T) {
	if _, err := parseDaemonFlags([]string{"-mode", "cables", testSpec}, flag.ContinueOnError); err == nil {
		t.Fatal("bad -mode accepted")
	}
	if _, err := parseDaemonFlags([]string{}, flag.ContinueOnError); err == nil {
		t.Fatal("missing spec argument accepted")
	}
	cfg, err := parseDaemonFlags([]string{
		"-addr", "127.0.0.1:0", "-k", "2", "-mode", "links",
		"-overload", "0.95", "-state", "/tmp/x", testSpec,
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.k != 2 || !cfg.modeSet || cfg.overload != 0.95 || cfg.spec != testSpec {
		t.Fatalf("flags not parsed: %+v", cfg)
	}
}

// TestDaemonSmoke drives a full daemon lifecycle: start on an ephemeral
// port, query, apply a delta, re-query, save state, and shut down
// gracefully with exit code 0.
func TestDaemonSmoke(t *testing.T) {
	cfg, err := parseDaemonFlags([]string{"-addr", "127.0.0.1:0", "-state", t.TempDir(), testSpec}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	ready := make(chan string, 1)
	sig := make(chan os.Signal, 1)
	exited := make(chan int, 1)
	go func() { exited <- runDaemon(cfg, &stderr, ready, sig) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not become ready; stderr:\n%s", stderr.String())
	}
	base := "http://" + addr

	get := func(path string) (int, []byte) {
		t.Helper()
		res, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, _ := io.ReadAll(res.Body)
		return res.StatusCode, body
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		res, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, _ := io.ReadAll(res.Body)
		return res.StatusCode, b
	}

	if code, body := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body := get("/v1/report")
	if code != http.StatusOK {
		t.Fatalf("report: %d %s", code, body)
	}
	var rep1 struct {
		Version int64  `json:"version"`
		Report  string `json:"report"`
	}
	if err := json.Unmarshal(body, &rep1); err != nil {
		t.Fatal(err)
	}
	if rep1.Version != 1 || rep1.Report == "" {
		t.Fatalf("unexpected initial report: %s", body)
	}

	code, body = post("/v1/delta",
		`{"deltas":[{"op":"add-static","router":"B","prefix":"55.0.0.0/8","discard":true}],"verify":true}`)
	if code != http.StatusOK {
		t.Fatalf("delta: %d %s", code, body)
	}
	var rep2 struct {
		Version   int64 `json:"version"`
		CacheHits int64 `json:"cache_hits"`
	}
	if err := json.Unmarshal(body, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Version != 2 {
		t.Fatalf("delta published version %d, want 2", rep2.Version)
	}
	if rep2.CacheHits != 2 {
		t.Fatalf("delta re-verify cache hits = %d, want 2 (all classes warm)", rep2.CacheHits)
	}

	if code, body := post("/v1/delta", `{"deltas":[{"op":"add-static","router":"NOPE","prefix":"1.0.0.0/8","discard":true}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid delta: %d %s", code, body)
	}
	if code, body := get("/v1/spec"); code != http.StatusOK || !strings.Contains(string(body), "router A") {
		t.Fatalf("spec: %d %s", code, body)
	}
	if code, body := post("/v1/save", ""); code != http.StatusOK {
		t.Fatalf("save: %d %s", code, body)
	}
	if code, body := get("/v1/metrics"); code != http.StatusOK || !strings.Contains(string(body), "serve.class_cache_hits") ||
		!strings.Contains(string(body), `"cache_bytes": `) || strings.Contains(string(body), `"cache_bytes": 0,`) ||
		!strings.Contains(string(body), `"check.links_built": `) || !strings.Contains(string(body), `"check.classes_total": `) {
		t.Fatalf("metrics (want the cache counters, every manager's cache_bytes and the check stage's counters): %d %s", code, body)
	}

	sig <- os.Interrupt
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit code %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
