// The incremental-vs-cold oracle: random delta sequences applied through
// the daemon (internal/serve) must leave its report byte-identical to a
// cold full verification of the final specification. This is the
// end-to-end defense of the warm-cache soundness argument — if the
// content-hash invalidation ever under-approximates what a delta dirties,
// the stale class's numbers leak into the report and the byte comparison
// fails. The same licence covers the read path: every portfolio answer the
// daemon gives on the build a version retains — first, repeated, after a
// collection of the retained manager, before the version's first report or
// racing it — must be byte-identical to a cold portfolio run of that
// version's text.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	_ "unsafe" // for go:linkname

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/serve"
	"github.com/yu-verify/yu/internal/topo"
)

// serveCollectBeforeEval is internal/serve's unexported test hook (tlp.go):
// while positive, every portfolio evaluation first forces a managed
// collection of the retained manager. Reached by linkname because the hook
// must not become an option.
//
//go:linkname serveCollectBeforeEval github.com/yu-verify/yu/internal/serve.collectBeforeEval
var serveCollectBeforeEval atomic.Int32

// deltaPortfolio renders the portfolio CheckDeltas queries the daemon with:
// the case's legacy properties mirrored as TLProps (mirrorPortfolio) plus one
// conditional bound, in the `tlp` text form. Links are named, so the text
// means the same on every version a delta sequence publishes.
func deltaPortfolio(c *Case) string {
	props, _ := mirrorPortfolio(c)
	props = append(props, topo.TLProp{Kind: topo.TLPUtil, AllLinks: true, Factor: 0.8, CondSet: true, CondLink: 0})
	var sb strings.Builder
	for _, p := range props {
		sb.WriteString("tlp ")
		sb.WriteString(canon.FormatProp(c.Spec.Net, p))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkVersion holds the daemon's current version to cold runs of its own
// text: three portfolio queries — the first before the version's first
// report (step%3 == 0), racing it (1) or after it (2); the second and third
// necessarily on the retained build, the third across a forced collection of
// the retained manager — each byte-equal to a cold VerifyPortfolio, and the
// report byte-equal to a cold Verify.
func checkVersion(c *Case, s *serve.Server, portfolio string, step int) error {
	text, id := s.SpecText()
	spec, err := config.ParseSpecString(text)
	if err != nil {
		return fmt.Errorf("version %d does not parse: %w", id, err)
	}
	props, err := config.ParsePortfolioString(portfolio, spec.Net)
	if err != nil {
		return fmt.Errorf("portfolio against version %d: %w", id, err)
	}
	opts := yu.VerifyOptions{K: c.K, Mode: c.Mode, ModeSet: true}
	coldRes, err := yu.FromSpec(spec).VerifyPortfolio(props, opts)
	var dispute *yu.ErrNotConverged
	if errors.As(err, &dispute) {
		// A delta may configure a BGP policy dispute (local-pref is enough).
		// There is no verdict to compare then: the daemon must say the same,
		// on both paths, and go on serving.
		res, rerr := s.Report()
		if rerr != nil || !errors.As(res.Err, &dispute) {
			return fmt.Errorf("cold run: %v; the daemon's report says %v / %v", err, rerr, res.Err)
		}
		for i := 0; i < 2; i++ {
			if _, qerr := s.EvalPortfolioCtx(context.Background(), portfolio); !errors.As(qerr, &dispute) {
				return fmt.Errorf("cold run: %v; portfolio query %d on the daemon says %v", err, i, qerr)
			}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("cold portfolio: %w", err)
	}
	coldPortfolio := canon.FormatPortfolio(spec.Net, coldRes)
	opts.OverloadFactor = c.OverloadFactor
	coldRep, err := yu.FromSpec(spec).Verify(opts)
	if err != nil {
		return fmt.Errorf("cold verify: %w", err)
	}
	coldReport := canon.FormatReport(spec.Net, coldRep)

	query := func(when string) error {
		res, err := s.EvalPortfolioCtx(context.Background(), portfolio)
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return fmt.Errorf("portfolio query %s: %w", when, err)
		}
		if res.Version != id {
			return fmt.Errorf("portfolio query %s cites version %d, current is %d", when, res.Version, id)
		}
		if res.Text != coldPortfolio {
			return fmt.Errorf("portfolio query %s diverges from cold\n--- daemon\n%s--- cold\n%s", when, res.Text, coldPortfolio)
		}
		return nil
	}
	report := func() error {
		res, err := s.Report()
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if res.Text != coldReport {
			return fmt.Errorf("incremental report diverges from cold\n--- incremental\n%s\n--- cold\n%s", res.Text, coldReport)
		}
		return nil
	}
	switch step % 3 {
	case 0:
		if err := query("before the version's first report"); err != nil {
			return err
		}
		err = report()
	case 1:
		raced := make(chan error, 1)
		go func() { raced <- query("racing the version's first report") }()
		err = report()
		if rerr := <-raced; err == nil {
			err = rerr
		}
	default:
		if err = report(); err == nil {
			err = query("after the version's report")
		}
	}
	if err != nil {
		return err
	}
	if err := query("repeated on the retained build"); err != nil {
		return err
	}
	serveCollectBeforeEval.Add(1)
	defer serveCollectBeforeEval.Add(-1)
	return query("after a collection of the retained manager")
}

// CheckDeltas is the incremental-vs-cold oracle: starting from the
// case's spec, apply n random deltas one at a time through a daemon, and
// after the initial load and after every delta hold the version to cold runs
// of its own text (checkVersion: its report, and its portfolio answers from
// the retained build). A second, fresh daemon given the final text directly
// must agree with the first.
func CheckDeltas(c *Case, rng *rand.Rand, n int) error {
	text0, err := canon.FormatSpec(c.Spec)
	if err != nil {
		return fmt.Errorf("deltas: format: %w", err)
	}
	cfg := serve.Config{K: c.K, Mode: c.Mode, ModeSet: true, OverloadFactor: c.OverloadFactor}
	s := serve.NewServer(cfg)
	if _, err := s.LoadSpecText(text0); err != nil {
		return fmt.Errorf("deltas: load: %w", err)
	}
	portfolio := deltaPortfolio(c)
	if err := checkVersion(c, s, portfolio, 0); err != nil {
		return fmt.Errorf("deltas: initial load: %w", err)
	}
	spec0, err := config.ParseSpecString(text0)
	if err != nil {
		return fmt.Errorf("deltas: reparse: %w", err)
	}
	deltas := GenDeltas(rng, spec0, n)
	for i, d := range deltas {
		if _, err := s.ApplyDeltas([]serve.Delta{d}); err != nil {
			return fmt.Errorf("deltas: delta %d rejected (generator contract broken): %w", i, err)
		}
		if err := checkVersion(c, s, portfolio, i+1); err != nil {
			return fmt.Errorf("deltas: after delta %d: %w\n--- deltas\n%+v", i, err, deltas[:i+1])
		}
	}
	final, err := s.Report()
	if err != nil {
		return fmt.Errorf("deltas: final report: %w", err)
	}
	finalText, _ := s.SpecText()
	var dispute *yu.ErrNotConverged
	if errors.As(final.Err, &dispute) {
		return nil // checkVersion has held both paths to the same error
	}

	// A fresh daemon given the final text must agree too (canonical
	// text is a fixpoint; versioning adds nothing to the result).
	s2 := serve.NewServer(cfg)
	if _, err := s2.LoadSpecText(finalText); err != nil {
		return fmt.Errorf("deltas: fresh load: %w", err)
	}
	res2, err := s2.Report()
	if err != nil {
		return fmt.Errorf("deltas: fresh report: %w", err)
	}
	if res2.Err != nil {
		return fmt.Errorf("deltas: fresh verify: %w", res2.Err)
	}
	if res2.Text != final.Text {
		return fmt.Errorf("deltas: fresh daemon diverges from the incremental one\n--- fresh\n%s\n--- incremental\n%s", res2.Text, final.Text)
	}
	return nil
}
