package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/serve"
)

// TestNotConvergedSurfaces: a version whose BGP has no stable state
// answers every verifying endpoint with the reason in place of a report,
// and the daemon keeps serving — a delta that settles the dispute
// verifies, one that brings it back fails again.
func TestNotConvergedSurfaces(t *testing.T) {
	const reason = "BGP did not converge in 10 rounds; still changing: A 100.9.0.0/24, B 100.9.0.0/24"
	s := serve.NewServer(serve.Config{OverloadFactor: 0.5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	call := func(method, path string, body any) (int, map[string]any) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return res.StatusCode, out
	}
	refused := func(where string, status int, out map[string]any) {
		t.Helper()
		msg, _ := out["error"].(string)
		if !strings.Contains(msg, reason) {
			t.Errorf("%s: error %q, want the convergence verdict", where, msg)
		}
		if rep, _ := out["report"].(string); rep != "" || out["holds"] == true {
			t.Errorf("%s (status %d): a report beside the reason: %v", where, status, out)
		}
	}
	settle := func(pref uint32) map[string]any {
		return map[string]any{"verify": true, "deltas": []serve.Delta{
			{Op: "set-local-pref", Router: "A", Neighbor: "10.209.0.2", LocalPref: pref},
		}}
	}

	status, out := call("POST", "/v1/verify", map[string]string{"spec": readSpec(t, "notconverged/disagree.yu")})
	refused("/v1/verify", status, out)
	status, out = call("GET", "/v1/report", nil)
	refused("/v1/report", status, out)
	status, out = call("POST", "/v1/tlp", map[string]string{"portfolio": "tlp util 0.5"})
	refused("/v1/tlp", status, out)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("/v1/tlp: status %d, want 422", status)
	}

	status, out = call("POST", "/v1/delta", settle(100))
	if rep, _ := out["report"].(string); status != http.StatusOK || out["error"] != nil || rep == "" {
		t.Fatalf("dispute settled: status %d, %v", status, out)
	}
	status, out = call("POST", "/v1/delta", settle(200))
	refused("/v1/delta verify:true", status, out)
}
