package mtbdd

import (
	"fmt"
	"sort"
	"strings"
)

// Assignment is a partial assignment of failure variables: the variables a
// root-to-terminal path actually tested. Variables absent from the map are
// don't-cares (conventionally treated as alive).
type Assignment map[int]bool

// FailedVars returns the sorted list of variables assigned 0 (failed).
func (a Assignment) FailedVars() []int {
	var out []int
	for v, alive := range a {
		if !alive {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// String formats the assignment as e.g. "{x1=0 x3=1}" using variable
// indices (names are resolved by the caller, which knows the Manager).
func (a Assignment) String() string {
	vars := make([]int, 0, len(a))
	for v := range a {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(' ')
		}
		bit := 1
		if !a[v] {
			bit = 0
		}
		fmt.Fprintf(&b, "x%d=%d", v, bit)
	}
	b.WriteByte('}')
	return b.String()
}

// valueRange is a (min, max) pair of terminal values.
type valueRange struct{ lo, hi float64 }

// Range returns the minimum and maximum terminal values reachable in f.
// Results are cached in the Manager (backed by a lossy table, with an exact
// memo guaranteeing linear cost), making repeated bound queries — the
// early-termination pruning of verification — nearly free. The memo is the
// manager's walk scratch, emptied after each call (keepRangeMemo).
func (m *Manager) Range(f *Node) (lo, hi float64) {
	if m.rangeMemo == nil {
		m.rangeMemo = make(map[*Node]valueRange)
	}
	r := m.rangeOf(f, m.rangeMemo)
	m.keepRangeMemo()
	return r.lo, r.hi
}

// rangeOf is Range's walk below n.
func (m *Manager) rangeOf(n *Node, memo map[*Node]valueRange) valueRange {
	if n.IsTerminal() {
		return valueRange{n.Value, n.Value}
	}
	if l, h, ok := m.rangeTbl.get(n.id); ok {
		m.rangeHits++
		return valueRange{l, h}
	}
	m.rangeMisses++
	if r, ok := memo[n]; ok {
		return r
	}
	a, b := m.rangeOf(n.Lo, memo), m.rangeOf(n.Hi, memo)
	r := valueRange{min(a.lo, b.lo), max(a.hi, b.hi)}
	memo[n] = r
	m.rangeTbl.put(n.id, r.lo, r.hi)
	return r
}

// keepRangeMemo empties Range's memo and keeps it for the next call, unless
// it grew past scratchKeep.
func (m *Manager) keepRangeMemo() {
	if len(m.rangeMemo) > scratchKeep {
		m.rangeMemo = nil
		return
	}
	clear(m.rangeMemo)
}

// Witness returns one assignment under which f evaluates to a value v
// satisfying pred, along with that value. The assignment records only the
// variables on the discovered path (Theorem 5.1: for a KReduce'd MTBDD this
// encodes at most k failures). Returns ok=false if no terminal satisfies
// pred. Among satisfying paths it prefers those with fewer failures.
func (m *Manager) Witness(f *Node, pred func(float64) bool) (Assignment, float64, bool) {
	// First mark nodes that can reach a satisfying terminal.
	reach := make(map[*Node]bool)
	var mark func(n *Node) bool
	mark = func(n *Node) bool {
		if r, ok := reach[n]; ok {
			return r
		}
		var r bool
		if n.IsTerminal() {
			r = pred(n.Value)
		} else {
			// Order matters only for path choice, not markings.
			hi := mark(n.Hi)
			lo := mark(n.Lo)
			r = hi || lo
		}
		reach[n] = r
		return r
	}
	if !mark(f) {
		return nil, 0, false
	}
	// Greedily descend, preferring Hi (alive) to minimize failures.
	a := make(Assignment)
	n := f
	for !n.IsTerminal() {
		if reach[n.Hi] {
			a[int(n.Level)] = true
			n = n.Hi
		} else {
			a[int(n.Level)] = false
			n = n.Lo
		}
	}
	return a, n.Value, true
}

// ForEachPath invokes fn for every root-to-terminal path in f with the
// path's (partial) assignment and terminal value. fn returning false stops
// the walk. The assignment passed to fn is reused between calls; clone it
// if it must be retained.
func (m *Manager) ForEachPath(f *Node, fn func(Assignment, float64) bool) {
	a := make(Assignment)
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.IsTerminal() {
			return fn(a, n.Value)
		}
		v := int(n.Level)
		a[v] = false
		if !walk(n.Lo) {
			delete(a, v)
			return false
		}
		a[v] = true
		if !walk(n.Hi) {
			delete(a, v)
			return false
		}
		delete(a, v)
		return true
	}
	walk(f)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// String renders f as a sum-of-paths expression, mainly for tests and small
// examples; large MTBDDs are summarized by node count.
func (m *Manager) String(f *Node) string {
	if f.IsTerminal() {
		return trimFloat(f.Value)
	}
	const maxPaths = 16
	var parts []string
	count := 0
	m.ForEachPath(f, func(a Assignment, v float64) bool {
		count++
		if count > maxPaths {
			return false
		}
		if v == 0 {
			return true
		}
		vars := make([]int, 0, len(a))
		for vv := range a {
			vars = append(vars, vv)
		}
		sort.Ints(vars)
		var lits []string
		for _, vv := range vars {
			name := m.VarName(vv)
			if !a[vv] {
				name = "!" + name
			}
			lits = append(lits, name)
		}
		term := strings.Join(lits, "&")
		if v != 1 {
			term = trimFloat(v) + "*" + term
		}
		parts = append(parts, term)
		return true
	})
	if count > maxPaths {
		return fmt.Sprintf("<mtbdd %d nodes>", m.NodeCount(f))
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}
