package mtbdd

// KReduce implements the paper's KREDUCE operation (§5.2, Definition 5.2):
// it returns an MTBDD that is k-failure equivalent to f — it agrees with f
// on every assignment in which at most k variables are 0 — and in which no
// root-to-terminal path assigns 0 to more than k variables (Lemma 2).
//
// The recursion, with β_k denoting KReduce(·, k) and x_i the root variable
// of F:
//
//	β_0(F)  = F(1,1,...,1)                 (no failures left)
//	β_k(c)  = c                            (terminal)
//	β_k(F)  = hiK                          if β_{k-1}(hiK) == β_{k-1}(Lo)
//	β_k(F)  = x_i·hiK + x̄_i·β_{k-1}(Lo)    otherwise
//
// with hiK = β_k(F|x_i=1) and Lo = F|x_i=0. The third case is the novel
// merge: two cofactors that are merely (k-1)-failure equivalent — not
// isomorphic — collapse, because taking the Lo branch has already spent
// one failure. The test reads β_{k-1} of hiK rather than of F|x_i=1; by
// Lemma 1 it is the same node (join). The implementation is a dynamic
// program memoized on (node, k), so its cost is proportional to |F|·k.
//
// A negative k means no reduction, as at every kernel's entry point: f is
// returned as it is, and only a call that reduces is counted. KReduce is
// idempotent: KReduce(KReduce(f,k),k) == KReduce(f,k).
func (m *Manager) KReduce(f *Node, k int) *Node {
	if k < 0 {
		return f
	}
	m.kreduceCalls++
	return m.kreduce(f, int32(k))
}

func (m *Manager) kreduce(f *Node, k int32) *Node {
	if f.IsTerminal() || k < 0 {
		return f
	}
	if k == 0 {
		// β_0(F) = F(1,...,1), the value f carries.
		return m.Const(f.Value)
	}
	e := m.kreduceTbl.slot(f.id, k)
	if e.is(f.id, k) {
		m.kreduceHits++
		return m.node(e.res)
	}
	m.kreduceMisses++
	m.checkInterrupt()
	hiK := m.kreduce(m.node(f.hi), k)
	r := m.join(f.Level, m.kreduce(m.node(f.lo), k-1), hiK, k)
	*e = kreduceEntry{f.id, k, r.id}
	return r
}

// join ends a step of all three β recursions (kreduce, applyK, mulAddK),
// given the β_{k-1} result loK1 of the Lo cofactor and the β_k result hiK of
// the Hi cofactor H: hiK itself when β_{k-1}(hiK) == loK1 (the novel
// KREDUCE collapse, Definition 5.2 case 3: taking the Lo branch has already
// spent one failure), else the node testing level over them. hiK agrees
// with H on every assignment with at most k zeros, hence on every one with
// at most k-1, so by Lemma 1 β_{k-1}(hiK) is the node β_{k-1}(H): the test
// is exact without a walk of H at budget k-1. At k = 1, β_0(hiK) is the
// all-alive value hiK carries and loK1 is a terminal, so the test compares
// values. An unbounded budget asks no merge test.
func (m *Manager) join(level int32, loK1, hiK *Node, k int32) *Node {
	if k == 1 && hiK.Value == loK1.Value || k > 1 && m.kreduce(hiK, k-1) == loK1 {
		return hiK
	}
	return m.mk(level, loK1, hiK)
}

// MaxFailuresOnPath returns the maximum number of 0-assignments (failures)
// encoded on any root-to-terminal path of f. For any g = KReduce(f, k)
// this is at most k (Lemma 2). A terminal yields 0.
func (m *Manager) MaxFailuresOnPath(f *Node) int {
	memo := make(map[*Node]int)
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n.IsTerminal() {
			return 0
		}
		if v, ok := memo[n]; ok {
			return v
		}
		hi := walk(m.node(n.hi))
		lo := walk(m.node(n.lo)) + 1
		v := hi
		if lo > v {
			v = lo
		}
		memo[n] = v
		return v
	}
	return walk(f)
}

// KEquivalent reports whether f and g agree on every assignment with at
// most k failed (0) variables. By Lemma 1, KReduce(f,k) == KReduce(g,k)
// iff f ≈_k g, and hash-consing makes that a pointer comparison.
func (m *Manager) KEquivalent(f, g *Node, k int) bool {
	if f == g {
		return true
	}
	return m.KReduce(f, k) == m.KReduce(g, k)
}
