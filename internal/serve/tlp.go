// POST /v1/tlp: portfolio evaluation against the daemon's verified state.
// The request pins the current version and evaluates an arbitrary TLP
// portfolio with the batch engine on the build that version's report was
// checked on — one symbolic run per version serves its report and every
// query after it, so a query costs what the paper says a TLP costs: a
// per-link aggregation and a terminal scan. Less, mostly: a load whose
// classes did not move since a check stored it — on this version or an
// earlier one — is replayed from the server's store of loads, not
// aggregated again (core.STFCache's CarriedLoad, runCache in cache.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/tlp"
)

// tlpRequest is the POST /v1/tlp body.
type tlpRequest struct {
	// Portfolio is portfolio text (`tlp` lines, see config.ParsePortfolio)
	// resolved against the current version's network. Empty evaluates the
	// spec's own `tlp` section.
	Portfolio string `json:"portfolio,omitempty"`
}

// tlpResponse is the JSON rendering of a portfolio evaluation.
type tlpResponse struct {
	Version    int64  `json:"version"`
	Holds      bool   `json:"holds"`
	Report     string `json:"report"`
	Properties int    `json:"properties"`
	Violations int    `json:"violations"`
	// CacheHits/CacheMisses are the pinned version's build statistics —
	// what its one verification drew from the warm STF cache, the same
	// numbers its /v1/report carries. A query adds to neither.
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

// TLPResult is the outcome of one portfolio evaluation against a pinned
// version.
type TLPResult struct {
	Version int64
	Result  *yu.TLPResult
	// Text is the canonical rendering (canon.FormatPortfolio).
	Text string
	// Stats are the pinned version's build statistics: the evaluation
	// itself consults no cache.
	Stats RunStats
	Err   error
}

// collectBeforeEval is a test hook, never set by library code: while it is
// positive, every portfolio evaluation first forces a managed collection of
// the retained manager (internal/difftest reaches it by go:linkname — the
// byte-identity oracle must hold across one, and it must not become an
// option).
var collectBeforeEval atomic.Int32

// EvalPortfolioCtx evaluates portfolio text against the current version,
// on the state that version was verified on: a per-link aggregation — or a
// carried load — and a terminal scan per subject, no route simulation, no
// execution, no STF cache replay. A version not verified yet is verified first — the one shared
// run every reader of it waits for, until ctx expires. An empty text
// evaluates the spec's own portfolio section. Parse and compile errors are
// returned as the error, and so is the failure of a version that could not
// be built; a governed abort (ctx or VerifyTimeout expiring mid-evaluation,
// or the version's own build cut short by it) returns a partial result
// whose undecided properties are unchecked, carried in TLPResult.Err — and
// leaves the retained state usable. Stats are the pinned version's build
// statistics: a query touches no STF cache.
func (s *Server) EvalPortfolioCtx(ctx context.Context, portfolioText string) (TLPResult, error) {
	v := s.cur.Load()
	if v == nil {
		return TLPResult{}, fmt.Errorf("serve: no specification loaded")
	}
	var props []yu.TLProp
	if portfolioText != "" {
		var err error
		props, err = config.ParsePortfolioString(portfolioText, v.spec.Net)
		if err != nil {
			return TLPResult{}, fmt.Errorf("portfolio: %w", err)
		}
	} else {
		props = v.spec.Portfolio
	}
	// Compiled once, before the version's build is awaited: a malformed
	// portfolio is refused without waiting for it.
	port, err := tlp.Compile(v.spec.Net, v.spec.Flows, props)
	if err != nil {
		return TLPResult{}, err
	}
	s.reg.Counter("serve.tlp_requests").Inc()
	sp := s.reg.Span("tlp")
	defer sp.End()
	select {
	case <-v.done:
		s.reg.Counter("serve.tlp_retained").Inc()
	default:
	}
	if err := v.await(ctx); err != nil {
		return TLPResult{}, err
	}
	if v.build == nil {
		return TLPResult{}, v.result.Err
	}
	select {
	case v.lock <- struct{}{}:
		defer func() { <-v.lock }()
	case <-ctx.Done():
		s.reg.Counter("serve.timeouts").Inc()
		return TLPResult{}, fmt.Errorf("serve: waiting for the verified state of version %d: %w", v.id, ctx.Err())
	}
	if s.cfg.VerifyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.VerifyTimeout)
		defer cancel()
	}
	if collectBeforeEval.Load() > 0 {
		v.build.Collect()
	}
	res, err := v.build.EvalPortfolio(ctx, port)
	if res == nil {
		return TLPResult{}, err
	}
	return TLPResult{
		Version: v.id,
		Result:  res,
		Text:    canon.FormatPortfolio(v.spec.Net, res),
		Stats:   v.result.Stats,
		Err:     err,
	}, nil
}

func (s *Server) handleTLP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req tlpRequest
	if !s.readBody(w, r, &req) {
		return
	}
	res, err := s.EvalPortfolioCtx(r.Context(), req.Portfolio)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			writeError(w, http.StatusGatewayTimeout, err)
		case s.cur.Load() == nil:
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	out := tlpResponse{
		Version:     res.Version,
		Holds:       res.Result.Holds,
		Report:      res.Text,
		Properties:  res.Result.Stats.Properties,
		Violations:  res.Result.Stats.Violations,
		CacheHits:   res.Stats.CacheHits,
		CacheMisses: res.Stats.CacheMisses,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}
