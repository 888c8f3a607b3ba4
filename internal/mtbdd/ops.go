package mtbdd

import "math"

// opcode identifies a binary terminal operation in the fused computed table.
type opcode uint8

const (
	opAdd opcode = iota
	opSub
	opMul
	opDiv // x/0 yields 0, 0/0 included (see DivK)
	opMin
	opMax
	// Boolean ops on {0,1} MTBDDs. And/Or are min/max restricted to
	// guards; they get their own opcodes so guard-only shortcuts apply.
	opAnd
	opOr
	// opMulAdd tags the fused ternary multiply-accumulate in the fused
	// computed table (kernels.go); it is never passed to eval.
	opMulAdd
)

func (op opcode) eval(a, b float64) float64 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	case opDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case opMin:
		return math.Min(a, b)
	case opMax:
		return math.Max(a, b)
	case opAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case opOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}
	panic("mtbdd: unknown opcode")
}

// shortcut returns a precomputed result for algebraic identities that avoid
// recursion entirely, or nil if none applies.
func (m *Manager) shortcut(op opcode, f, g *Node) *Node {
	switch op {
	case opAdd:
		if f == m.zero {
			return g
		}
		if g == m.zero {
			return f
		}
	case opSub:
		if g == m.zero {
			return f
		}
	case opMul:
		if f == m.zero || g == m.zero {
			return m.zero
		}
		if f == m.one {
			return g
		}
		if g == m.one {
			return f
		}
	case opDiv:
		if f == m.zero {
			return m.zero
		}
		if g == m.one {
			return f
		}
	case opMin, opAnd:
		if f == g {
			return f
		}
		if op == opAnd {
			if f == m.zero || g == m.zero {
				return m.zero
			}
			if f == m.one {
				return g
			}
			if g == m.one {
				return f
			}
		}
	case opMax, opOr:
		if f == g {
			return f
		}
		if op == opOr {
			if f == m.one || g == m.one {
				return m.one
			}
			if f == m.zero {
				return g
			}
			if g == m.zero {
				return f
			}
		}
	}
	return nil
}

// commutes reports whether op is commutative, letting the computed table
// canonicalize operand order.
func (op opcode) commutes() bool {
	switch op {
	case opAdd, opMul, opMin, opMax, opAnd, opOr:
		return true
	}
	return false
}

// The plain operators are the fused kernels at an unbounded budget
// (kernels.go): Bryant's APPLY, with no reduction.

// Add returns f + g.
func (m *Manager) Add(f, g *Node) *Node { return m.applyK(opAdd, f, g, unbounded) }

// Sub returns f - g.
func (m *Manager) Sub(f, g *Node) *Node { return m.applyK(opSub, f, g, unbounded) }

// Mul returns f * g (pointwise).
func (m *Manager) Mul(f, g *Node) *Node { return m.applyK(opMul, f, g, unbounded) }

// Min returns the pointwise minimum of f and g.
func (m *Manager) Min(f, g *Node) *Node { return m.applyK(opMin, f, g, unbounded) }

// Max returns the pointwise maximum of f and g.
func (m *Manager) Max(f, g *Node) *Node { return m.applyK(opMax, f, g, unbounded) }

// And returns the conjunction of two {0,1} guards.
func (m *Manager) And(f, g *Node) *Node { return m.applyK(opAnd, f, g, unbounded) }

// Or returns the disjunction of two {0,1} guards.
func (m *Manager) Or(f, g *Node) *Node { return m.applyK(opOr, f, g, unbounded) }

// Not returns the complement 1-f of a {0,1} guard.
func (m *Manager) Not(f *Node) *Node {
	if f == m.zero {
		return m.one
	}
	if f == m.one {
		return m.zero
	}
	e := m.negTbl.slot(f.id)
	if e.f == f.id {
		m.negHits++
		return m.node(e.res)
	}
	m.negMisses++
	var r *Node
	if f.IsTerminal() {
		if f.Value != 0 {
			r = m.zero
		} else {
			r = m.one
		}
	} else {
		r = m.mk(f.Level, m.Not(m.node(f.lo)), m.Not(m.node(f.hi)))
	}
	*e = unaryEntry{f.id, r.id}
	return r
}

// Scale returns c * f for a scalar c.
func (m *Manager) Scale(c float64, f *Node) *Node {
	if c == 1 {
		return f
	}
	return m.Mul(m.Const(c), f)
}

// ITE returns the if-then-else composition g·f + (1-g)·h, where g is a
// {0,1} guard.
func (m *Manager) ITE(g, f, h *Node) *Node {
	if g == m.one {
		return f
	}
	if g == m.zero {
		return h
	}
	if f == h {
		return f
	}
	return m.Add(m.Mul(g, f), m.Mul(m.Not(g), h))
}

// Restrict returns the cofactor of f with variable v fixed to val.
func (m *Manager) Restrict(f *Node, v int, val bool) *Node {
	m.checkVar(v)
	return m.restrict(f, int32(v), val, make(map[*Node]*Node))
}

func (m *Manager) restrict(f *Node, v int32, val bool, memo map[*Node]*Node) *Node {
	if f.IsTerminal() || f.Level > v {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	var r *Node
	if f.Level == v {
		if val {
			r = m.node(f.hi)
		} else {
			r = m.node(f.lo)
		}
	} else {
		r = m.mk(f.Level, m.restrict(m.node(f.lo), v, val, memo), m.restrict(m.node(f.hi), v, val, memo))
	}
	memo[f] = r
	return r
}
