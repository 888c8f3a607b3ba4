// HTTP/JSON surface of the daemon. Every handler pins the version it
// serves with a single atomic load (directly or through the Server
// accessors), so each response cites exactly one version even while
// reloads and deltas race it.
//
// Handler wraps the mux in a robustness stack (outermost first):
// panic recovery (500, process survives), admission control (bounded
// in-flight requests, 503 + Retry-After beyond MaxInFlight), and a
// per-request deadline (requests answer 504 when RequestTimeout
// elapses; the underlying verification keeps running and is shared
// with later requests). Bodies beyond MaxBodyBytes answer 413.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/yu-verify/yu/internal/fault"
)

// verifyRequest is the optional POST /v1/verify body.
type verifyRequest struct {
	// Spec, when non-empty, is a full specification text to load before
	// verifying (a reload). Empty verifies the current version.
	Spec string `json:"spec,omitempty"`
}

// deltaRequest is the POST /v1/delta body.
type deltaRequest struct {
	Deltas []Delta `json:"deltas"`
	// Verify forces verification of the new version before responding
	// (by default deltas publish lazily and the next report pays).
	Verify bool `json:"verify,omitempty"`
}

// reportResponse is the JSON rendering of a RunResult.
type reportResponse struct {
	Version     int64  `json:"version"`
	Holds       bool   `json:"holds"`
	Report      string `json:"report"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

type versionResponse struct {
	Version int64 `json:"version"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/verify   verify current version, or reload {"spec": ...} and verify
//	POST /v1/delta    apply {"deltas": [...]} atomically, return new version
//	POST /v1/tlp      evaluate a TLP portfolio ({"portfolio": ...} or the
//	                  spec's own tlp section) on the state the current
//	                  version was verified on
//	GET  /v1/report   verification result of the current version
//	GET  /v1/spec     canonical spec text (X-Yu-Version header)
//	GET  /v1/metrics  obs registry snapshot
//	POST /v1/save     persist warm state now
//	GET  /v1/healthz  liveness + current version (exempt from admission
//	                  control and the request deadline, so probes stay
//	                  honest under load)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/v1/delta", s.handleDelta)
	mux.HandleFunc("/v1/tlp", s.handleTLP)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/spec", s.handleSpec)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/save", s.handleSave)
	healthz := http.HandlerFunc(s.handleHealthz)
	mux.Handle("/v1/healthz", healthz)
	return s.recoverPanics(s.admit(healthz, s.withDeadline(mux)))
}

// recoverPanics is the outermost middleware: a panicking handler (or an
// injected fault) answers 500 and the daemon keeps serving.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if c, ok := rec.(fault.Crash); ok {
					panic(c) // simulated process kills must not be absorbed
				}
				if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(rec)
				}
				s.reg.Counter("serve.panics").Inc()
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("serve: handler panic: %v", rec))
			}
		}()
		if err := fault.Here("serve.http.request"); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// admit bounds concurrently served requests to MaxInFlight. Beyond the
// bound, requests answer 503 with Retry-After — load shedding at the
// door, so a burst of expensive verifies cannot pile up goroutines.
// Health probes bypass the gate.
func (s *Server) admit(healthz, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			healthz.ServeHTTP(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			s.reg.Counter("serve.rejected").Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("serve: too many in-flight requests (limit %d)", s.cfg.MaxInFlight))
		}
	})
}

// withDeadline attaches the per-request deadline to the request context.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if len(body) == 0 {
		return true // empty body keeps v's zero value
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("body: %w", err))
		return false
	}
	return true
}

// writeReport renders a ReportCtx outcome: 504 when the request deadline
// cut the wait short, 409 when no spec is loaded.
func writeReport(w http.ResponseWriter, res RunResult, err error) {
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeError(w, http.StatusGatewayTimeout, err)
			return
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, runResultJSON(res))
}

func runResultJSON(res RunResult) reportResponse {
	out := reportResponse{
		Version:     res.Version,
		Holds:       res.Holds,
		Report:      res.Text,
		CacheHits:   res.Stats.CacheHits,
		CacheMisses: res.Stats.CacheMisses,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	return out
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req verifyRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if req.Spec != "" {
		if _, err := s.LoadSpecText(req.Spec); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	res, err := s.ReportCtx(r.Context())
	writeReport(w, res, err)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req deltaRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if len(req.Deltas) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no deltas"))
		return
	}
	start := time.Now()
	id, err := s.ApplyDeltas(req.Deltas)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if req.Verify {
		res, err := s.ReportCtx(r.Context())
		s.timeDelta(req.Deltas, start)
		writeReport(w, res, err)
		return
	}
	s.timeDelta(req.Deltas, start)
	writeJSON(w, http.StatusOK, versionResponse{Version: id})
}

// timeDelta records an accepted single-op delta request — the apply, and
// the verify when it asked for one — under the timer serve.delta.<op>, so
// the daemon's metrics say what each kind of delta costs.
func (s *Server) timeDelta(deltas []Delta, start time.Time) {
	if len(deltas) == 1 {
		s.reg.Timer("serve.delta." + deltas[0].Op).Add(time.Since(start))
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	res, err := s.ReportCtx(r.Context())
	writeReport(w, res, err)
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	text, id := s.SpecText()
	if id == 0 {
		writeError(w, http.StatusConflict, fmt.Errorf("serve: no specification loaded"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Yu-Version", fmt.Sprint(id))
	io.WriteString(w, text)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.Snapshot().WriteJSON(w)
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if err := s.SaveState(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"saved": s.cfg.StatePath != "", "entries": s.store.len()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "version": s.Version()})
}
