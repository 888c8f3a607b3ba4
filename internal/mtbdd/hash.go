package mtbdd

import "math"

// Hasher computes structural hashes of MTBDD nodes: two nodes from the
// same manager hash equal exactly when they are the same canonical node,
// and — more usefully — nodes from *different* managers with the same
// variable order hash equal when they represent the same function. That
// is the property core's class keys rest on: a guard hashed in one run
// identifies the same guard in the next run's freshly built manager.
//
// Hashes are memoized per node pointer, so hashing a guard layer that
// shares most of its DAG with previously hashed guards is nearly free.
// A Hasher hashes the nodes of one manager, and is not safe for concurrent
// use.
type Hasher struct {
	m    *Manager
	memo map[*Node]uint64
}

// NewHasher returns an empty memoized hasher of m's nodes.
func NewHasher(m *Manager) *Hasher {
	return &Hasher{m: m, memo: make(map[*Node]uint64)}
}

// Hash returns the structural hash of n (nil hashes to 0). Children are
// hashed before parents with an explicit stack, so arbitrarily deep DAGs
// cannot overflow the goroutine stack.
func (h *Hasher) Hash(n *Node) uint64 {
	if n == nil {
		return 0
	}
	if v, ok := h.memo[n]; ok {
		return v
	}
	type frame struct {
		n        *Node
		expanded bool
	}
	stack := []frame{{n, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := h.memo[f.n]; ok && !f.expanded {
			continue
		}
		if f.n.IsTerminal() {
			h.memo[f.n] = mix64(0x9e3779b97f4a7c15 ^ math.Float64bits(f.n.Value))
			continue
		}
		lo, hi := h.m.node(f.n.lo), h.m.node(f.n.hi)
		if f.expanded {
			v := mix64(uint64(f.n.Level) + 0x6a09e667f3bcc909)
			v = mix64(v ^ h.memo[lo])
			v = mix64((v + 0x3c6ef372fe94f82b) ^ h.memo[hi])
			h.memo[f.n] = v
			continue
		}
		stack = append(stack, frame{f.n, true})
		if _, ok := h.memo[hi]; !ok {
			stack = append(stack, frame{hi, false})
		}
		if _, ok := h.memo[lo]; !ok {
			stack = append(stack, frame{lo, false})
		}
	}
	return h.memo[n]
}
