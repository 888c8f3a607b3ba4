// Package govern defines the typed errors and context plumbing of the
// resource-governance layer: cancellation, deadlines, and MTBDD node
// budgets. It is a leaf package — every stage of the pipeline (mtbdd,
// routesim, core, the baselines, and the public yu API) imports it, so a
// caller can match errors with errors.Is regardless of which stage
// unwound.
package govern

import (
	"context"
	"errors"
	"time"
)

var (
	// ErrCanceled is returned when a verification run is abandoned
	// because its context was canceled. The accompanying Report is
	// partial: completed checks are kept, the rest are marked unchecked.
	ErrCanceled = errors.New("verification canceled")
	// ErrDeadline is returned when a verification run exceeds its
	// context deadline.
	ErrDeadline = errors.New("verification deadline exceeded")
	// ErrNodeBudget is returned when an MTBDD manager's live-node budget
	// is breached and a collection did not relieve it. yu.Verify's degrade
	// policy answers it with whole-run enumeration instead.
	ErrNodeBudget = errors.New("mtbdd live-node budget exceeded")
)

// CtxErr maps the context package's sentinel errors onto the governance
// errors, leaving any other error (or nil) unchanged.
func CtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	}
	return err
}

// Check polls a context, tolerating nil (a nil context never cancels),
// and returns the mapped governance error. A deadline that has passed is
// ErrDeadline at once: ctx.Err() says so only once the deadline's timer has
// fired, which a loaded scheduler can leave for later.
func Check(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return CtxErr(err)
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return ErrDeadline
	}
	return nil
}
