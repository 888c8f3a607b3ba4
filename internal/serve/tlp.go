// POST /v1/tlp: portfolio evaluation against the daemon's warm state.
// The request pins the current version and evaluates an arbitrary TLP
// portfolio with the batch engine — one symbolic run serves every
// property, and the run draws its symbolic execution from the warm STF
// cache, so on a warm daemon only classes dirtied since the last run are
// re-executed.
package serve

import (
	"context"
	"fmt"
	"net/http"

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
	Version     int64  `json:"version"`
	Holds       bool   `json:"holds"`
	Report      string `json:"report"`
	Properties  int    `json:"properties"`
	Violations  int    `json:"violations"`
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
	Text  string
	Stats RunStats
	Err   error
}

// EvalPortfolioCtx evaluates portfolio text against the current version
// from warm state. An empty text evaluates the spec's own portfolio
// section. Parse and compile errors are returned as the error; a
// governed abort (ctx expiry mid-run) returns a partial result whose
// undecided properties are unchecked, carried in TLPResult.Err.
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
	if _, err := tlp.Compile(v.spec.Net, v.spec.Flows, props); err != nil {
		return TLPResult{}, err
	}
	s.reg.Counter("serve.tlp_requests").Inc()
	sp := s.reg.Span("tlp")
	defer sp.End()
	if s.cfg.VerifyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.VerifyTimeout)
		defer cancel()
	}
	rc := newRunCache(s)
	res, err := yu.FromSpec(v.spec).VerifyPortfolio(props, yu.VerifyOptions{
		K:        s.cfg.K,
		Mode:     s.cfg.Mode,
		ModeSet:  s.cfg.ModeSet,
		Workers:  1,
		Ctx:      ctx,
		Obs:      s.reg,
		STFCache: rc,
	})
	if res == nil {
		return TLPResult{}, err
	}
	return TLPResult{
		Version: v.id,
		Result:  res,
		Text:    canon.FormatPortfolio(v.spec.Net, res),
		Stats:   RunStats{CacheHits: rc.hits, CacheMisses: rc.misses},
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
		if res.Version == 0 && s.cur.Load() == nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err)
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
