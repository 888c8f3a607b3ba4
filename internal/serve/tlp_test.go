// Tests for POST /v1/tlp: portfolio evaluation must answer on the state its
// version was verified on (no route simulation, no execution, no cache
// traffic, no second build), byte-equal to a cold run whenever it is asked,
// report the pinned version, survive a deadline, and map malformed
// portfolios to 422 / missing spec to 409 without ever panicking.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/serve"
)

type tlpResp struct {
	Version     int64  `json:"version"`
	Holds       bool   `json:"holds"`
	Report      string `json:"report"`
	Properties  int    `json:"properties"`
	Violations  int    `json:"violations"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

func postTLP(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Post(url+"/v1/tlp", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(res.Body)
	res.Body.Close()
	return res, data
}

// TestTLPWarm: a portfolio query on a verified version is answered on the
// state that version's report was checked on — it simulates no routes,
// executes nothing, consults no cache and runs no build, by the daemon's own
// counters — and its verdicts agree with the known Figure 1 loads. The
// cache_hits/cache_misses it carries are the pinned version's build
// statistics, the numbers of its /v1/report.
func TestTLPWarm(t *testing.T) {
	s := serve.NewServer(serve.Config{K: 1})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	first := mustReport(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := s.Metrics().Snapshot().Counters
	res, body := postTLP(t, ts.URL, `{"portfolio":
		"tlp link C-E max 95\ntlp delivered 100.0.0.0/24 min 70\ntlp link D-E max 105 if-failed B-D"}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var r tlpResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("body: %v\n%s", err, body)
	}
	if r.Error != "" {
		t.Fatalf("tlp error: %s", r.Error)
	}
	if r.Version != first.Version {
		t.Errorf("tlp cites version %d, report pinned %d", r.Version, first.Version)
	}
	// The version's build statistics: its cold verification executed both
	// classes.
	if r.CacheHits != first.Stats.CacheHits || r.CacheMisses != first.Stats.CacheMisses || r.CacheMisses != 2 {
		t.Errorf("hits/misses = %d/%d, want the version's build statistics %d/%d",
			r.CacheHits, r.CacheMisses, first.Stats.CacheHits, first.Stats.CacheMisses)
	}
	// k=1: C->E hits 100 when B-D fails, delivery stays >= 80 (one E-F
	// link survives), and the conditional bound 105 can never be hit.
	if r.Properties != 3 || r.Violations != 1 || r.Holds {
		t.Errorf("properties/violations/holds = %d/%d/%v, want 3/1/false",
			r.Properties, r.Violations, r.Holds)
	}
	if !strings.Contains(r.Report, "group when") {
		t.Errorf("report lacks a violation group:\n%s", r.Report)
	}

	after := s.Metrics().Snapshot().Counters
	for _, name := range []string{"routesim.bgp_rounds", "exec.flows_executed", "serve.class_cache_hits", "serve.class_cache_misses", "serve.builds", "serve.prefix_fingerprints"} {
		if before[name] != after[name] {
			t.Errorf("%s advanced %d -> %d across a query on a verified version", name, before[name], after[name])
		}
	}
	if before["routesim.bgp_rounds"] == 0 || before["exec.flows_executed"] != 2 || before["serve.builds"] != 1 {
		t.Errorf("the version's own verification left bgp_rounds=%d flows_executed=%d builds=%d, want >0, 2, 1",
			before["routesim.bgp_rounds"], before["exec.flows_executed"], before["serve.builds"])
	}
	if got := after["serve.tlp_retained"] - before["serve.tlp_retained"]; got != 1 {
		t.Errorf("serve.tlp_retained advanced by %d, want 1", got)
	}
	if after["serve.tlp_requests"] != 1 {
		t.Errorf("serve.tlp_requests = %d, want 1", after["serve.tlp_requests"])
	}
	if after["tlp.properties"] != 3 {
		t.Errorf("tlp.properties = %d, want 3", after["tlp.properties"])
	}
}

// coldPortfolio evaluates portfolio text on a cold library run of spec text
// — the oracle every /v1/tlp answer is held to.
func coldPortfolio(t *testing.T, specText, portfolio string, k int) string {
	t.Helper()
	n, err := yu.LoadString(specText)
	if err != nil {
		t.Fatalf("cold parse: %v", err)
	}
	props, err := config.ParsePortfolioString(portfolio, n.Topology())
	if err != nil {
		t.Fatalf("cold portfolio: %v", err)
	}
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{K: k})
	if err != nil {
		t.Fatalf("cold VerifyPortfolio: %v", err)
	}
	return canon.FormatPortfolio(n.Topology(), res)
}

// pollLimited is a context that expires after a fixed number of Err polls: a
// deadline that lands inside an evaluation, deterministically. The governed
// pipeline polls Err and never waits on Done.
type pollLimited struct {
	context.Context
	left int
}

func (c *pollLimited) Err() error {
	if c.left <= 0 {
		return context.DeadlineExceeded
	}
	c.left--
	return nil
}

const motivatingPortfolio = "tlp util 0.95\ntlp link C-E max 95\ntlp delivered 100.0.0.0/24 min 70\ntlp link D-E max 105 if-failed B-D\n"

// TestTLPDeadlineLeavesBuildUsable: a query whose context expires inside
// the evaluation returns the partial result with ErrDeadline, and the
// retained build is none the worse — the next query on the same version is
// byte-equal to a cold run.
func TestTLPDeadlineLeavesBuildUsable(t *testing.T) {
	s := serve.NewServer(serve.Config{K: 1})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	mustReport(t, s)
	text, _ := s.SpecText()
	want := coldPortfolio(t, text, motivatingPortfolio, 1)

	res, err := s.EvalPortfolioCtx(&pollLimited{Context: context.Background(), left: 3}, motivatingPortfolio)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, yu.ErrDeadline) {
		t.Fatalf("Err = %v, want ErrDeadline", res.Err)
	}
	if r := res.Result; !r.Incomplete || r.Holds || r.Stats.Unchecked == 0 || r.Stats.LinkScans == 0 {
		t.Fatalf("want a partial result cut short mid-evaluation, got %+v", r.Stats)
	}
	for i := 0; i < 2; i++ {
		res, err = s.EvalPortfolioCtx(context.Background(), motivatingPortfolio)
		if err != nil || res.Err != nil {
			t.Fatalf("query %d after the deadline: %v %v", i, err, res.Err)
		}
		if res.Text != want {
			t.Fatalf("query %d after the deadline differs from cold\n--- want\n%s--- got\n%s", i, want, res.Text)
		}
	}
	if n := s.Metrics().Snapshot().Counters["serve.builds"]; n != 1 {
		t.Errorf("serve.builds = %d after three queries on one version, want 1", n)
	}
}

// TestTLPOnVersionThatTimedOut: a version whose own build hit VerifyTimeout
// answers a portfolio query as a fresh VerifyPortfolio under that deadline
// would — every property unchecked, the typed error — without building again.
func TestTLPOnVersionThatTimedOut(t *testing.T) {
	s := serve.NewServer(serve.Config{K: 1, VerifyTimeout: time.Nanosecond})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Report()
	if err != nil || !errors.Is(rep.Err, yu.ErrDeadline) {
		t.Fatalf("report under a 1ns budget: %v, Err %v; want ErrDeadline", err, rep.Err)
	}
	for i := 0; i < 2; i++ {
		res, err := s.EvalPortfolioCtx(context.Background(), motivatingPortfolio)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(res.Err, yu.ErrDeadline) {
			t.Fatalf("Err = %v, want ErrDeadline", res.Err)
		}
		if r := res.Result; r.Holds || !r.Incomplete || r.Stats.Unchecked != r.Stats.Properties || r.Stats.Properties != 4 {
			t.Fatalf("want all 4 properties unchecked, got %+v", r.Stats)
		}
	}
	if n := s.Metrics().Snapshot().Counters["serve.builds"]; n != 1 {
		t.Errorf("serve.builds = %d, want 1: queries must not rebuild a version", n)
	}
}

// TestTLPBeforeFirstReport: a query on a version nobody has asked a report of
// runs that version's one build — which the report then finds done — and a
// query racing the report shares it.
func TestTLPBeforeFirstReport(t *testing.T) {
	s := serve.NewServer(serve.Config{K: 1})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	text, _ := s.SpecText()
	want := coldPortfolio(t, text, motivatingPortfolio, 1)
	res, err := s.EvalPortfolioCtx(context.Background(), motivatingPortfolio)
	if err != nil || res.Err != nil {
		t.Fatalf("query before the first report: %v %v", err, res.Err)
	}
	if res.Text != want {
		t.Fatalf("query before the first report differs from cold\n--- want\n%s--- got\n%s", want, res.Text)
	}
	c := s.Metrics().Snapshot().Counters
	if c["serve.builds"] != 1 || c["serve.tlp_retained"] != 0 {
		t.Errorf("builds=%d tlp_retained=%d after a query on an unverified version, want 1 and 0", c["serve.builds"], c["serve.tlp_retained"])
	}
	if got := mustReport(t, s).Text; got != coldReport(t, text) {
		t.Errorf("report after the query differs from cold")
	}

	// Racing: a delta, then a report and two queries at once on the new version.
	if _, err := s.ApplyDeltas([]serve.Delta{{Op: "add-static", Router: "A", Prefix: "100.0.0.1/32", Discard: true}}); err != nil {
		t.Fatal(err)
	}
	text, _ = s.SpecText()
	want = coldPortfolio(t, text, motivatingPortfolio, 1)
	var wg sync.WaitGroup
	texts := make([]string, 3)
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				if r, err := s.Report(); err == nil && r.Err == nil {
					texts[i] = r.Text
				}
				return
			}
			if r, err := s.EvalPortfolioCtx(context.Background(), motivatingPortfolio); err == nil && r.Err == nil {
				texts[i] = r.Text
			}
		}(i)
	}
	wg.Wait()
	if texts[0] != coldReport(t, text) {
		t.Errorf("racing report differs from cold")
	}
	for i, got := range texts[1:] {
		if got != want {
			t.Errorf("racing query %d differs from cold\n--- want\n%s--- got\n%s", i, want, got)
		}
	}
	if n := s.Metrics().Snapshot().Counters["serve.builds"]; n != 2 {
		t.Errorf("serve.builds = %d after two versions, want 2", n)
	}
}

// TestTLPEmptyBody: an empty request evaluates the spec's own portfolio
// section — none here, so the answer is a trivially holding portfolio.
func TestTLPEmptyBody(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, body := postTLP(t, ts.URL, "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var r tlpResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Holds || r.Properties != 0 {
		t.Errorf("empty portfolio: holds=%v properties=%d, want true/0", r.Holds, r.Properties)
	}
}

// TestTLPErrors: malformed portfolios answer 422, a daemon without a
// spec answers 409, and GET answers 405. None of these count as served
// evaluations.
func TestTLPErrors(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	if _, err := s.LoadSpecText(readSpec(t, "motivating.yu")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown-link": `{"portfolio":"tlp link X-Y max 1"}`,
		"bad-kind":     `{"portfolio":"tlp frobnicate 1"}`,
		"min-gt-max":   `{"portfolio":"tlp link C-E min 5 max 1"}`,
		"bad-number":   `{"portfolio":"tlp link C-E max lots"}`,
		"dir-in-link":  `{"portfolio":"tlp link C->E max 1"}`,
	} {
		res, data := postTLP(t, ts.URL, body)
		if res.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (%s)", name, res.StatusCode, data)
		}
	}

	res, err := http.Get(ts.URL + "/v1/tlp")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", res.StatusCode)
	}

	if n := s.Metrics().Snapshot().Counters["serve.tlp_requests"]; n != 0 {
		t.Errorf("serve.tlp_requests = %d after only failed requests, want 0", n)
	}

	empty := serve.NewServer(serve.Config{})
	ts2 := httptest.NewServer(empty.Handler())
	defer ts2.Close()
	res2, _ := postTLP(t, ts2.URL, `{"portfolio":"tlp util 0.9"}`)
	if res2.StatusCode != http.StatusConflict {
		t.Errorf("no spec: status %d, want 409", res2.StatusCode)
	}
}
