// Daemon endurance (ROADMAP 4c, b): a long run of mixed deltas beside
// concurrent report and portfolio readers, over the HTTP handler. Run it
// under -race; -short scales it by ten.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/difftest"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/serve"
)

// TestEnduranceMixedDeltasAndReaders: 200 generated deltas applied one at a
// time while four /v1/tlp readers and two /v1/report readers hammer the
// daemon. Every response cites exactly one version and equals a cold run of
// that version's /v1/spec text; the warm store never outgrows CacheLimit, and
// its lists never hold more snapshot entries than its entries would one by
// one; no version is built twice; and no goroutine outlives the last response.
func TestEnduranceMixedDeltasAndReaders(t *testing.T) {
	deltas := 200
	if testing.Short() {
		deltas /= 10
	}
	wan, wanText := serve.WANText(t, 20, 40, 10, 200, 5)
	pfx := gen.Prefixes(wan)[0].String()
	for _, in := range []struct {
		name, spec, portfolio string
		cacheLimit            int
	}{
		{"motivating", readSpec(t, "motivating.yu"), motivatingPortfolio, 3},
		{"wan-20", wanText, "tlp util 0.9\ntlp delivered " + pfx + " min 1\ntlp ratio " + pfx + " min 0.5\n", 256},
	} {
		t.Run(in.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			s := serve.NewServer(serve.Config{K: 1, OverloadFactor: 0.95, CacheLimit: in.cacheLimit})
			id, err := s.LoadSpecText(in.spec)
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			text0, _ := s.SpecText()
			spec0, err := config.ParseSpecString(text0)
			if err != nil {
				t.Fatal(err)
			}

			var mu sync.Mutex
			specOf := map[int64]string{id: text0} // version -> its canonical text
			reports := map[int64]string{}         // version -> the /v1/report text served
			portfolios := map[int64]string{}      // version -> the /v1/tlp text served
			observe := func(kind string, seen map[int64]string, version int64, text string) {
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := seen[version]; ok && prev != text {
					t.Errorf("version %d served two different %s answers", version, kind)
				}
				seen[version] = text
			}
			call := func(method, path string, body any) (int64, string, error) {
				var buf bytes.Buffer
				if body != nil {
					json.NewEncoder(&buf).Encode(body)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
				var r struct {
					Version int64  `json:"version"`
					Report  string `json:"report"`
					Error   string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
					return 0, "", fmt.Errorf("%s %s: HTTP %d: %v", method, path, rec.Code, err)
				}
				if rec.Code != http.StatusOK || r.Error != "" || r.Version <= 0 {
					return 0, "", fmt.Errorf("%s %s: HTTP %d, version %d, error %q", method, path, rec.Code, r.Version, r.Error)
				}
				return r.Version, r.Report, nil
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			reader := func(kind string, seen map[int64]string, method, path string, body any) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					version, text, err := call(method, path, body)
					if err != nil {
						t.Error(err)
						return
					}
					observe(kind, seen, version, text)
				}
			}
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go reader("/v1/tlp", portfolios, http.MethodPost, "/v1/tlp", map[string]string{"portfolio": in.portfolio})
			}
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go reader("/v1/report", reports, http.MethodGet, "/v1/report", nil)
			}

			for i, d := range difftest.GenDeltas(rand.New(rand.NewSource(17)), spec0, deltas) {
				version, _, err := call(http.MethodPost, "/v1/delta", map[string]any{"deltas": []serve.Delta{d}})
				if err != nil {
					t.Fatalf("delta %d (%s): %v", i, d.Op, err)
				}
				// The one writer: the current text is this version's.
				text, cur := s.SpecText()
				if cur != version {
					t.Fatalf("delta %d published version %d, current is %d", i, version, cur)
				}
				mu.Lock()
				specOf[version] = text
				mu.Unlock()
				if n := s.StoreLen(); n > in.cacheLimit {
					t.Fatalf("after delta %d the warm store holds %d entries, CacheLimit %d", i, n, in.cacheLimit)
				}
				if lists, perClass := s.StoreLayout(); lists > perClass {
					t.Fatalf("after delta %d the warm store's lists hold %d snapshot entries, its entries alone %d", i, lists, perClass)
				}
				if i%8 == 7 {
					time.Sleep(2 * time.Millisecond) // let the readers verify some versions, skip others
				}
			}
			close(stop)
			wg.Wait()
			// One last answer of each kind on the final version.
			for _, r := range []struct {
				kind         string
				seen         map[int64]string
				method, path string
				body         any
			}{
				{"/v1/tlp", portfolios, http.MethodPost, "/v1/tlp", map[string]string{"portfolio": in.portfolio}},
				{"/v1/report", reports, http.MethodGet, "/v1/report", nil},
			} {
				version, text, err := call(r.method, r.path, r.body)
				if err != nil {
					t.Fatal(err)
				}
				observe(r.kind, r.seen, version, text)
			}
			if n := s.StoreLen(); n > in.cacheLimit {
				t.Fatalf("the warm store holds %d entries, CacheLimit %d", n, in.cacheLimit)
			}

			// Every answer against a cold run of the text of the version it cites.
			for version, got := range reports {
				text, ok := specOf[version]
				if !ok {
					t.Fatalf("a response cites version %d, which was never published", version)
				}
				n, err := yu.LoadString(text)
				if err != nil {
					t.Fatalf("version %d: %v", version, err)
				}
				rep, err := n.Verify(yu.VerifyOptions{K: 1, OverloadFactor: 0.95})
				if err != nil {
					t.Fatalf("cold verify of version %d: %v", version, err)
				}
				if want := canon.FormatReport(n.Topology(), rep); got != want {
					t.Errorf("/v1/report of version %d differs from a cold run of its text\n--- want\n%s--- got\n%s", version, want, got)
				}
			}
			for version, got := range portfolios {
				if _, ok := specOf[version]; !ok {
					t.Fatalf("a response cites version %d, which was never published", version)
				}
				if want := coldPortfolio(t, specOf[version], in.portfolio, 1); got != want {
					t.Errorf("/v1/tlp of version %d differs from a cold run of its text\n--- want\n%s--- got\n%s", version, want, got)
				}
			}
			if len(reports) < 2 || len(portfolios) < 2 {
				t.Errorf("the readers saw %d report and %d portfolio versions: no concurrency was exercised", len(reports), len(portfolios))
			}
			c := s.Metrics().Snapshot().Counters
			if c["serve.builds"] > c["serve.versions"] || c["serve.versions"] != int64(deltas)+1 {
				t.Errorf("serve.builds = %d, serve.versions = %d after %d deltas", c["serve.builds"], c["serve.versions"], deltas)
			}
			// Verifications nobody waits for any more still finish on their own.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after the last response, %d before the daemon started", n, baseline)
			}
		})
	}
}
