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
// Three triggers exist:
//
//   - An interrupt hook (SetInterrupt), polled every interruptStride
//     node-level operations via a cheap counter. The pipeline installs
//     a context poll here, which is what bounds cancellation latency
//     inside long apply/KReduce chains.
//   - A live-node budget (SetNodeBudget), checked whenever mk inserts a
//     new node into the unique table.
//   - The id space: node ids are 32 bits, and a manager whose slabs hold
//     every one of them stops with an *IDSpaceError, which the budget's
//     callers already handle — a GC that releases a slab frees its ids.
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
	Live  int // live nodes the breaching construction would have made
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("mtbdd: live nodes %d exceed budget %d", e.Live, e.Limit)
}

// Is makes errors.Is(err, govern.ErrNodeBudget) match a *BudgetError.
func (e *BudgetError) Is(target error) bool { return target == govern.ErrNodeBudget }

// IDSpaceError reports that every 32-bit node id is held by a slab the
// manager has not released, so it can build nothing new until a GC frees
// some. It matches govern.ErrNodeBudget under errors.Is, because the remedy
// is the budget's: collect and retry, then stop or answer the run another
// way.
type IDSpaceError struct {
	Created uint64 // nodes the manager created, one per id
}

func (e *IDSpaceError) Error() string {
	return fmt.Sprintf("mtbdd: node id space exhausted after %d nodes", e.Created)
}

// Is makes errors.Is(err, govern.ErrNodeBudget) match an *IDSpaceError.
func (e *IDSpaceError) Is(target error) bool { return target == govern.ErrNodeBudget }

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

// SetNodeBudget bounds the manager's live internal nodes: node
// construction that would grow the unique table past n aborts the in-flight
// operation with a *BudgetError, so the table never holds more than n.
// 0 (or negative) disables the budget.
func (m *Manager) SetNodeBudget(n int) {
	if n < 0 {
		n = 0
	}
	m.budget = n
}

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

// checkBudget aborts when one more node would outgrow the budget.
func (m *Manager) checkBudget() {
	if m.budget > 0 && m.unique.count >= m.budget {
		panic(opAbort{&BudgetError{Limit: m.budget, Live: m.unique.count + 1}})
	}
}

// AbortError extracts the error carried by a recovered operation abort,
// or nil if the recovered value is not an abort (the caller should
// re-panic it).
func AbortError(r any) error {
	if a, ok := r.(opAbort); ok {
		return a.err
	}
	return nil
}

// Guard runs fn and converts an operation abort (interrupt, budget
// breach or spent id space) into its error. Any other panic propagates
// unchanged. After a non-nil return the manager is still consistent, but
// nodes created by the aborted operation are garbage until the next GC.
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
