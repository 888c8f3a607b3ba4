package govern

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCtxErrAndCheck: the context package's two sentinels map onto the
// governance errors, wrapped or not; nil and foreign errors pass through; a
// nil context never cancels.
func TestCtxErrAndCheck(t *testing.T) {
	foreign := errors.New("disk full")
	for _, tc := range []struct{ in, want error }{
		{nil, nil},
		{context.Canceled, ErrCanceled},
		{context.DeadlineExceeded, ErrDeadline},
		{fmt.Errorf("stage: %w", context.Canceled), ErrCanceled},
		{fmt.Errorf("stage: %w", context.DeadlineExceeded), ErrDeadline},
		{foreign, foreign},
		{ErrNodeBudget, ErrNodeBudget},
	} {
		if got := CtxErr(tc.in); got != tc.want {
			t.Errorf("CtxErr(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if err := Check(nil); err != nil { //nolint:staticcheck // a nil context is the documented "never cancels"
		t.Errorf("Check(nil) = %v", err)
	}
	if err := Check(context.Background()); err != nil {
		t.Errorf("Check(live context) = %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Check(canceled); err != ErrCanceled {
		t.Errorf("Check(canceled) = %v, want ErrCanceled", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if err := Check(expired); err != ErrDeadline {
		t.Errorf("Check(expired) = %v, want ErrDeadline", err)
	}
}
