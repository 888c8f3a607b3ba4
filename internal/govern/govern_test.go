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

// lateCtx is a context whose deadline has passed but whose Err is still nil:
// what a deadline context reads between its deadline and its timer's firing.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestCheckPastDeadline: a context past its deadline is ErrDeadline to Check
// even while its Err is nil, and one whose deadline is ahead is not.
func TestCheckPastDeadline(t *testing.T) {
	late := lateCtx{context.Background()}
	if late.Err() != nil {
		t.Fatal("the late context reports an error of its own")
	}
	if err := Check(late); err != ErrDeadline {
		t.Errorf("Check(past deadline, nil Err) = %v, want ErrDeadline", err)
	}
	ahead, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := Check(ahead); err != nil {
		t.Errorf("Check(deadline an hour ahead) = %v", err)
	}
}
