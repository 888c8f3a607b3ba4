package mtbdd

import (
	"fmt"

	"github.com/yu-verify/yu/internal/govern"
)

// Resource governance for MTBDD operations.
//
// The manager's operations (apply, KReduce, mk) are deeply
// recursive with no error returns — threading errors through them would
// tax the hot path and obscure the algorithms. Instead, like CUDD's
// longjmp-based operation abort, a breach unwinds the recursion with a
// typed panic (opAbort) that Guard converts back into an error at a
// governed boundary. An abort leaves the manager consistent: the unique
// table and caches only ever hold fully-constructed canonical nodes, so
// the manager remains usable afterwards. Partially-built intermediate
// nodes become garbage for the next managed GC.
//
// Two triggers exist:
//
//   - An interrupt hook (SetInterrupt), polled every interruptStride
//     node-level operations via a cheap counter. The pipeline installs
//     a context poll here, which is what bounds cancellation latency
//     inside long apply/KReduce chains.
//   - A live-node budget (SetNodeBudget), checked whenever mk inserts a
//     new node into the unique table.
//
// Crucially, a budget breach must NOT garbage-collect mid-operation:
// in-flight recursion frames hold unrooted intermediate nodes, and a GC
// followed by re-creation would alias two pointers for one function,
// silently breaking the pointer-equality canonicity §5.3 relies on.
// The engine GCs at safe points between operations and retries instead.

// interruptStride is how many counted operations pass between polls of
// the interrupt hook. Node-level operations run in well under a
// microsecond, so a stride of 4096 keeps cancellation latency in the
// low milliseconds while making the common case a single increment.
const interruptStride = 1 << 12

// opAbort is the typed panic that unwinds an aborted operation.
type opAbort struct{ err error }

// BudgetError reports a live-node budget breach. It matches
// govern.ErrNodeBudget under errors.Is.
type BudgetError struct {
	Limit int // the configured budget
	Live  int // live nodes at the moment of the breach
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("mtbdd: live nodes %d exceed budget %d", e.Live, e.Limit)
}

// Is makes errors.Is(err, govern.ErrNodeBudget) match a *BudgetError.
func (e *BudgetError) Is(target error) bool { return target == govern.ErrNodeBudget }

// SetInterrupt installs a hook polled periodically during MTBDD
// operations; a non-nil return aborts the in-flight operation, and the
// error surfaces from Guard at the nearest governed boundary. The hook
// must not use the manager. Passing nil removes the hook. The previous
// hook is returned so callers can restore it.
func (m *Manager) SetInterrupt(fn func() error) func() error {
	prev := m.interrupt
	m.interrupt = fn
	return prev
}

// SetNodeBudget bounds the manager's live internal nodes: once the
// unique table grows past n, node construction aborts the in-flight
// operation with a *BudgetError. 0 (or negative) disables the budget.
// The budget is advisory-at-mk granularity — the table may exceed the
// budget by the nodes of the final operation before the breach is seen.
func (m *Manager) SetNodeBudget(n int) {
	if n < 0 {
		n = 0
	}
	m.budget = n
}

// NodeBudget returns the configured live-node budget (0 = unlimited).
func (m *Manager) NodeBudget() int { return m.budget }

// checkInterrupt is the counted poll point, called from the recursive
// operations. It is a method-call plus increment in the common case.
func (m *Manager) checkInterrupt() {
	m.opTick++
	if m.opTick&(interruptStride-1) != 0 || m.interrupt == nil {
		return
	}
	if err := m.interrupt(); err != nil {
		panic(opAbort{err})
	}
}

// checkBudget aborts when the unique table has outgrown the budget.
func (m *Manager) checkBudget() {
	if m.budget > 0 && m.unique.count > m.budget {
		panic(opAbort{&BudgetError{Limit: m.budget, Live: m.unique.count}})
	}
}

// Abort unwinds to the nearest Guard with the given error, exactly as an
// interrupt or budget breach would. It lets governed code interleaved
// with MTBDD operations (e.g. the concrete fallback's scenario loop)
// share the same unwind path instead of inventing a second one.
func Abort(err error) { panic(opAbort{err}) }

// AbortError extracts the error carried by a recovered operation abort,
// or nil if the recovered value is not an abort (the caller should
// re-panic it).
func AbortError(r any) error {
	if a, ok := r.(opAbort); ok {
		return a.err
	}
	return nil
}

// Guard runs fn and converts an operation abort (interrupt or budget
// breach) into its error. Any other panic propagates unchanged. After a
// non-nil return the manager is still consistent, but nodes created by
// the aborted operation are garbage until the next GC.
func Guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e := AbortError(r); e != nil {
				err = e
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}
