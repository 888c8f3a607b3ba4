// Acceptance tests for the resource-governance surface of the public
// API: typed cancellation and budget errors, partial reports, and the
// degrade policy's whole-run concrete answer to a budget breach.
package yu_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/paperex"
)

func motivating(t *testing.T) *yu.Network {
	t.Helper()
	n, err := yu.LoadString(paperex.Motivating)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestVerifyPreCanceledContext: a context canceled before Verify starts
// must return ErrCanceled with a partial report, not a panic or a hang.
func TestVerifyPreCanceledContext(t *testing.T) {
	n := motivating(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.95, Ctx: ctx})
	if !errors.Is(err, yu.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if rep == nil || !rep.Incomplete {
		t.Fatalf("want partial report with Incomplete set, got %+v", rep)
	}
	if rep.Holds {
		t.Fatal("incomplete report claims Holds")
	}
	if len(rep.Unchecked) == 0 {
		t.Fatal("partial report does not name the unchecked links")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("%d violations from a run that checked nothing", len(rep.Violations))
	}
}

// TestVerifyDeadline: an already-expired deadline surfaces as
// ErrDeadline (distinct from plain cancellation).
func TestVerifyDeadline(t *testing.T) {
	n := motivating(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.95, Ctx: ctx})
	if !errors.Is(err, yu.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, yu.ErrCanceled) {
		t.Fatal("deadline expiry must not match ErrCanceled")
	}
	if rep == nil || !rep.Incomplete {
		t.Fatalf("want partial report, got %+v", rep)
	}
}

// TestVerifyNodeBudgetFail: a 1-node budget under the default fail
// policy returns ErrNodeBudget with a partial report.
func TestVerifyNodeBudgetFail(t *testing.T) {
	n := motivating(t)
	rep, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.95, MaxNodes: 1})
	if !errors.Is(err, yu.ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if rep == nil || !rep.Incomplete || rep.Holds {
		t.Fatalf("want partial non-Holds report, got %+v", rep)
	}
}

// checkBreakingBudget is the smallest budget under which the motivating
// example's build completes but its checks breach: the degrade policy must
// answer a breach in the check stage as it answers one in execution.
func checkBreakingBudget(t *testing.T, n *yu.Network) int {
	t.Helper()
	for budget := 1; budget <= 4000; budget++ {
		b, err := n.Build(yu.VerifyOptions{OverloadFactor: 0.95, MaxNodes: budget})
		if err != nil {
			continue
		}
		if _, err := b.Verify(nil); errors.Is(err, yu.ErrNodeBudget) {
			return budget
		}
	}
	t.Fatal("no budget lets the build through and breaks a check")
	return 0
}

// TestVerifyNodeBudgetDegrade: whatever the budget, the degrade policy
// renders a complete verdict without error, and its manager never holds more
// than MaxNodes nodes. Where the budget breaches — in execution or in a check
// — the canonical report is the enumerating baseline's, plus the "degraded
// flows" line naming every flow; where it does not (4000: the example peaks
// at a few hundred nodes) it is the fail policy's symbolic report.
func TestVerifyNodeBudgetDegrade(t *testing.T) {
	n := motivating(t)
	base, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.95, Engine: yu.EngineEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	var flows []string
	for _, f := range n.Spec().Flows {
		flows = append(flows, f.String())
	}
	sort.Strings(flows)
	enumerated := canon.FormatReport(n.Topology(), base) + "degraded flows " + strings.Join(flows, " ") + "\n"

	breaches := 0
	for _, budget := range []int{1, 64, 4000, checkBreakingBudget(t, n)} {
		want := enumerated
		failed, err := n.Verify(yu.VerifyOptions{OverloadFactor: 0.95, MaxNodes: budget})
		if err == nil {
			want = canon.FormatReport(n.Topology(), failed)
		} else if errors.Is(err, yu.ErrNodeBudget) {
			breaches++
		} else {
			t.Fatalf("budget=%d, fail policy: %v", budget, err)
		}
		reg := yu.NewMetrics()
		rep, err := n.Verify(yu.VerifyOptions{
			OverloadFactor: 0.95, MaxNodes: budget, OnBudget: yu.BudgetDegrade, Obs: reg,
		})
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if got := canon.FormatReport(n.Topology(), rep); got != want {
			t.Fatalf("budget=%d: canonical report\n%s\nwant\n%s", budget, got, want)
		}
		for _, m := range reg.Snapshot().Managers {
			if m.Name == "primary" && m.PeakLive > budget {
				t.Fatalf("budget=%d: the primary manager peaked at %d live nodes", budget, m.PeakLive)
			}
		}
	}
	if breaches < 3 {
		t.Fatalf("%d of the budgets breached, want 1, 64 and the check-breaking one", breaches)
	}
}

// TestVerifyPortfolioRejectsDegrade: a portfolio has no concrete answer to a
// budget breach, so VerifyPortfolio refuses the degrade policy up front, the
// way it refuses a malformed portfolio, and runs under the fail policy.
func TestVerifyPortfolioRejectsDegrade(t *testing.T) {
	n := motivating(t)
	props := motivatingPortfolio(t, n)
	reg := yu.NewMetrics()
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{MaxNodes: 1, OnBudget: yu.BudgetDegrade, Obs: reg})
	if err == nil || res != nil || errors.Is(err, yu.ErrNodeBudget) {
		t.Fatalf("res = %v, err = %v, want a plain error and no result", res, err)
	}
	if snap := reg.Snapshot(); len(snap.Managers) != 0 || len(snap.Phases) != 0 {
		t.Fatalf("the rejected portfolio still ran: %+v", snap)
	}
	if _, err := n.VerifyPortfolio(props, yu.VerifyOptions{MaxNodes: 1}); !errors.Is(err, yu.ErrNodeBudget) {
		t.Fatalf("fail policy: err = %v, want ErrNodeBudget", err)
	}
}
