// Tests for the build handle: one Build, any number of checks, each under
// its own context. Byte-identity of the checks with Verify/VerifyPortfolio on
// every pipeline path is held by internal/difftest's TestGoldenSweep; these
// cover the governance seams of the handle itself.
package yu_test

import (
	"context"
	"errors"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// pollLimited is a context that expires after a fixed number of Err polls —
// a deadline that lands inside a check, deterministically. The governed
// pipeline polls Err (ladder steps, the manager's interrupt hook); nothing
// there waits on Done.
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

func motivatingPortfolio(t *testing.T, n *yu.Network) []yu.TLProp {
	t.Helper()
	props, err := config.ParsePortfolioString(
		"tlp util 0.95\ntlp link C-E max 95\ntlp delivered 100.0.0.0/24 min 70\ntlp link D-E max 105 if-failed B-D\n", n.Topology())
	if err != nil {
		t.Fatal(err)
	}
	return props
}

// TestBuiltChecksUnderTheirOwnContexts: the context a build ran under may be
// dead by the time a check runs — the check must not inherit it; a check
// whose own context expires mid-scan returns the typed error with a partial
// result and leaves the build usable for the next one.
func TestBuiltChecksUnderTheirOwnContexts(t *testing.T) {
	n, err := yu.LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	props := motivatingPortfolio(t, n)
	opts := yu.VerifyOptions{K: 1, OverloadFactor: 0.95}
	wantRep, err := n.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := n.VerifyPortfolio(props, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantPortfolio := canon.FormatReport(n.Topology(), wantRep), canon.FormatPortfolio(n.Topology(), wantRes)

	buildCtx, cancel := context.WithCancel(context.Background())
	opts.Ctx = buildCtx
	b, err := n.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the build's context is gone; every check names its own

	same := func(when string) {
		t.Helper()
		res, err := b.VerifyPortfolio(context.Background(), props)
		if err != nil {
			t.Fatalf("%s: VerifyPortfolio: %v", when, err)
		}
		if got := canon.FormatPortfolio(n.Topology(), res); got != wantPortfolio {
			t.Fatalf("%s: portfolio differs from VerifyPortfolio\n--- want\n%s--- got\n%s", when, wantPortfolio, got)
		}
		rep, err := b.Verify(context.Background())
		if err != nil {
			t.Fatalf("%s: Verify: %v", when, err)
		}
		if got := canon.FormatReport(n.Topology(), rep); got != wantReport {
			t.Fatalf("%s: report differs from Verify\n--- want\n%s--- got\n%s", when, wantReport, got)
		}
	}
	same("after the build's context was canceled")

	// A deadline inside the evaluation: some subjects decided, the rest
	// unchecked, the typed error — and nothing of it sticks to the build.
	res, err := b.VerifyPortfolio(&pollLimited{Context: context.Background(), left: 3}, props)
	if !errors.Is(err, yu.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || !res.Incomplete || res.Holds || res.Stats.Unchecked == 0 || res.Stats.LinkScans == 0 {
		t.Fatalf("want a partial result cut short mid-evaluation, got %+v", res)
	}
	same("after a check hit its deadline")

	rep, err := b.Verify(&pollLimited{Context: context.Background(), left: 2})
	if !errors.Is(err, yu.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if rep == nil || !rep.Incomplete || rep.Holds || len(rep.Unchecked) == 0 || len(rep.LinkStats) == 0 {
		t.Fatalf("want a partial report cut short mid-check, got %+v", rep)
	}
	b.Trim()
	same("trimmed, after a Verify hit its deadline")
}

// TestBuiltChecksLeaveOneRecordPerManager: a kept build checked again and
// again holds one obs record per manager name — the latest — not one more per
// check, and that record is the manager as the last check left it.
func TestBuiltChecksLeaveOneRecordPerManager(t *testing.T) {
	n, err := yu.LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	props := motivatingPortfolio(t, n)
	reg := yu.NewMetrics()
	b, err := n.Build(yu.VerifyOptions{K: 1, OverloadFactor: 0.95, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	primaryLive := func() int {
		t.Helper()
		ms := reg.Snapshot().Managers
		if len(ms) != 1 || ms[0].Name != "primary" {
			t.Fatalf("manager records %+v, want the primary's alone", ms)
		}
		return ms[0].Live
	}
	for i := 0; i < 100; i++ {
		if _, err := b.Verify(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := b.VerifyPortfolio(context.Background(), props); err != nil {
			t.Fatal(err)
		}
	}
	if got := primaryLive(); got != b.LiveNodes() {
		t.Fatalf("the primary's record holds %d live nodes, the manager %d", got, b.LiveNodes())
	}
	// The latest snapshot wins: a check after a collection records the
	// collected manager.
	b.Collect()
	if _, err := b.VerifyPortfolio(context.Background(), props[2:3]); err != nil {
		t.Fatal(err)
	}
	if got := primaryLive(); got != b.LiveNodes() {
		t.Fatalf("after a collection the primary's record holds %d live nodes, the manager %d", got, b.LiveNodes())
	}
}

// TestBuildCutShort: a governed abort of the build stage still yields a
// handle, and every check on it answers what Verify and VerifyPortfolio
// answer for such a run: everything unchecked, the typed error.
func TestBuildCutShort(t *testing.T) {
	n, err := yu.LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	props := motivatingPortfolio(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := yu.VerifyOptions{K: 1, OverloadFactor: 0.95, Ctx: ctx}
	b, err := n.Build(opts)
	if b == nil || !errors.Is(err, yu.ErrCanceled) {
		t.Fatalf("Build under a canceled context = (%v, %v), want a handle and ErrCanceled", b, err)
	}
	wantRep, _ := n.Verify(opts)
	for i := 0; i < 2; i++ {
		rep, err := b.Verify(context.Background())
		if !errors.Is(err, yu.ErrCanceled) {
			t.Fatalf("Verify on a cut-short build: err = %v, want ErrCanceled", err)
		}
		if got, want := canon.FormatReport(n.Topology(), rep), canon.FormatReport(n.Topology(), wantRep); got != want {
			t.Fatalf("partial report differs from Verify's\n--- want\n%s--- got\n%s", want, got)
		}
		res, err := b.VerifyPortfolio(context.Background(), props)
		if !errors.Is(err, yu.ErrCanceled) {
			t.Fatalf("VerifyPortfolio on a cut-short build: err = %v, want ErrCanceled", err)
		}
		if res == nil || res.Stats.Unchecked != len(props) {
			t.Fatalf("want every property unchecked, got %+v", res)
		}
		for _, vd := range res.Verdicts {
			if vd.Status != tlp.StatusUnchecked {
				t.Fatalf("verdict %v on a cut-short build", vd.Status)
			}
		}
	}
	// There is no verifier to make lean: these must be no-ops, not panics.
	b.Trim()
	b.Collect()

	// Malformed portfolios are the error alone, build or no build.
	if res, err := b.VerifyPortfolio(context.Background(), []yu.TLProp{{Kind: topo.TLPLinkLoad, Link: 999}}); res != nil || err == nil {
		t.Fatalf("malformed portfolio = (%v, %v), want the compile error alone", res, err)
	}
}

// TestBuildYUEngineOnly: the baselines have no build stage to hand out.
func TestBuildYUEngineOnly(t *testing.T) {
	n, err := yu.LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []yu.Engine{yu.EngineEnumerate, yu.EngineShortestPath} {
		if b, err := n.Build(yu.VerifyOptions{Engine: e}); b != nil || err == nil {
			t.Errorf("Build with engine %d = (%v, %v), want an error", e, b, err)
		}
	}
}
