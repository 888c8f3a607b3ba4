package mtbdd

// ScanCheck is one interval predicate evaluated by ScanOutside: a hit is a
// root-to-terminal path whose value falls outside the closed interval
// [Lo, Hi] and whose failure count (variables assigned 0 on the path) does
// not exceed MaxFails. MaxFails < 0 means unlimited.
type ScanCheck struct {
	Lo, Hi   float64
	MaxFails int
}

// ScanHit is one check's outcome from ScanOutside.
type ScanHit struct {
	// OK reports that a path violating the check exists.
	OK bool
	// Value is the terminal value at the returned witness path.
	Value float64
	// A is the witness assignment (only the variables the path tested).
	A Assignment
}

// scanUnreach marks "no violating terminal reachable" in the min-fails
// table. Propagation can push values a few levels above it (lo+1 per
// level), so it sits far below the int32 ceiling.
const scanUnreach = int32(1) << 30

// ScanOutside evaluates every check against f in one shared walk: a single
// DFS over f's nodes computes, per node and per check, the minimal number
// of failures on any path below reaching a violating terminal, and each
// feasible check then extracts a witness by greedy descent preferring Hi
// (alive) branches. This is the batch form of WitnessOutside — for a check
// with unlimited MaxFails the returned witness assignment and value are
// identical to WitnessOutside(f, Lo, Hi), because "some violating terminal
// is reachable below Hi" and "Hi's min-fails is within an unlimited
// budget" select the same branch at every step.
//
// Cost is O(nodes × len(checks)), one traversal regardless of how many
// properties share the scan.
func (m *Manager) ScanOutside(f *Node, checks []ScanCheck) []ScanHit {
	k := len(checks)
	out := make([]ScanHit, k)
	if k == 0 {
		return out
	}
	// vals[memo[n]+i]: minimal count of Lo (failed) edges on any path from n
	// to a terminal violating check i; >= scanUnreach if none. The table is
	// the manager's, kept empty between scans so that a scan does not grow a
	// fresh one (keepScanTable).
	if m.scanMemo == nil {
		m.scanMemo = make(map[*Node]int32)
	}
	memo, vals := m.scanMemo, m.scanVals[:0]
	defer func() { m.keepScanTable(memo, vals) }()
	var walk func(n *Node) int32
	walk = func(n *Node) int32 {
		if off, ok := memo[n]; ok {
			return off
		}
		var hi, lo int32
		if !n.IsTerminal() {
			hi = walk(n.Hi)
			lo = walk(n.Lo)
		}
		off := int32(len(vals))
		for i := range checks {
			v := scanUnreach
			if n.IsTerminal() {
				if n.Value < checks[i].Lo || n.Value > checks[i].Hi {
					v = 0
				}
			} else if v = vals[hi+int32(i)]; vals[lo+int32(i)]+1 < v {
				v = vals[lo+int32(i)] + 1
			}
			vals = append(vals, v)
		}
		memo[n] = off
		return off
	}
	root := walk(f)
	for i := range checks {
		budget := scanUnreach - 1
		if checks[i].MaxFails >= 0 {
			budget = int32(checks[i].MaxFails)
		}
		if vals[root+int32(i)] > budget {
			continue
		}
		a := make(Assignment)
		n := f
		rem := budget
		for !n.IsTerminal() {
			if vals[memo[n.Hi]+int32(i)] <= rem {
				a[int(n.Level)] = true
				n = n.Hi
			} else {
				a[int(n.Level)] = false
				n = n.Lo
				rem--
			}
		}
		out[i] = ScanHit{OK: true, Value: n.Value, A: a}
	}
	return out
}

// scratchKeep is the most entries a walk's scratch (ScanOutside's table,
// Range's memo, the n-ary sum's state) may have held and still be kept for
// the next walk: clearing costs the scratch's capacity, so one a large load
// grew is dropped rather than cleared for every small load after it.
const scratchKeep = 1 << 14

// keepScanTable empties a scan's table and keeps it for the next scan,
// unless it grew past scratchKeep.
func (m *Manager) keepScanTable(memo map[*Node]int32, vals []int32) {
	if len(memo) > scratchKeep {
		m.scanMemo, m.scanVals = nil, nil
		return
	}
	clear(memo)
	m.scanMemo, m.scanVals = memo, vals
}
