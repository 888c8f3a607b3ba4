// Package routesim implements symbolic route simulation (paper §4.1,
// following Hoyan): it computes, for every router, a guarded RIB — BGP and
// IGP routes annotated with a boolean guard (an MTBDD over link/router
// failure variables) encoding exactly the failure scenarios in which the
// route is present — and guarded SR policies whose per-path guards are
// conjunctions of per-segment IGP reachability.
package routesim

import (
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// FailVars allocates one boolean MTBDD variable per failable element of
// the network, according to the failure mode. Elements outside the mode
// (and elements marked NoFail) get no variable and are treated as always
// alive.
type FailVars struct {
	M    *mtbdd.Manager
	Net  *topo.Network
	Mode topo.FailureMode
	K    int // failure budget used for KReduce throughout the pipeline

	linkVar   []int // per LinkID; -1 if unfailable
	routerVar []int // per RouterID; -1 if unfailable
	kindOf    []varKind
	elemOf    []int32
}

type varKind int8

const (
	varLink varKind = iota
	varRouter
)

// NewFailVars creates the failure variables for net under the given mode
// and budget k. Link variables are allocated before router variables.
func NewFailVars(m *mtbdd.Manager, net *topo.Network, mode topo.FailureMode, k int) *FailVars {
	fv := &FailVars{
		M:         m,
		Net:       net,
		Mode:      mode,
		K:         k,
		linkVar:   make([]int, net.NumLinks()),
		routerVar: make([]int, net.NumRouters()),
	}
	for i := range fv.linkVar {
		fv.linkVar[i] = -1
	}
	for i := range fv.routerVar {
		fv.routerVar[i] = -1
	}
	if mode == topo.FailLinks || mode == topo.FailBoth {
		for i := range net.Links {
			if net.Links[i].NoFail {
				continue
			}
			v := m.AddVar("L:" + net.LinkName(topo.LinkID(i)))
			fv.linkVar[i] = v
			fv.kindOf = append(fv.kindOf, varLink)
			fv.elemOf = append(fv.elemOf, int32(i))
		}
	}
	if mode == topo.FailRouters || mode == topo.FailBoth {
		for i := range net.Routers {
			if net.Routers[i].NoFail {
				continue
			}
			v := m.AddVar("R:" + net.Routers[i].Name)
			fv.routerVar[i] = v
			fv.kindOf = append(fv.kindOf, varRouter)
			fv.elemOf = append(fv.elemOf, int32(i))
		}
	}
	return fv
}

// NewFailVarsAliased creates failure variables for a domain subnet that
// alias the global network's variables: the manager declares the FULL
// global variable set, in the exact order and with the exact names
// NewFailVars would produce for the global network, but the per-element
// lookup tables are indexed by subnet IDs. Guards built in a domain
// manager therefore have the same canonical structure as the monolithic
// run's guards over the same elements — KReduce counts failures
// identically, and a snapshot replayed into a manager holding the global
// NewFailVars is a pure variable-order-preserving copy.
//
// Variables of elements outside the subnet are declared (to keep the
// order aligned) but unmapped: VarElement returns ok=false for them, and
// no subnet element resolves to them.
func NewFailVarsAliased(m *mtbdd.Manager, global *topo.Network, sub *topo.Subnet, mode topo.FailureMode, k int) *FailVars {
	fv := &FailVars{
		M:         m,
		Net:       sub.Net,
		Mode:      mode,
		K:         k,
		linkVar:   make([]int, sub.Net.NumLinks()),
		routerVar: make([]int, sub.Net.NumRouters()),
	}
	for i := range fv.linkVar {
		fv.linkVar[i] = -1
	}
	for i := range fv.routerVar {
		fv.routerVar[i] = -1
	}
	if mode == topo.FailLinks || mode == topo.FailBoth {
		for i := range global.Links {
			if global.Links[i].NoFail {
				continue
			}
			v := m.AddVar("L:" + global.LinkName(topo.LinkID(i)))
			fv.kindOf = append(fv.kindOf, varLink)
			if sl := sub.LinkIndex[i]; sl >= 0 {
				fv.linkVar[sl] = v
				fv.elemOf = append(fv.elemOf, int32(sl))
			} else {
				fv.elemOf = append(fv.elemOf, -1)
			}
		}
	}
	if mode == topo.FailRouters || mode == topo.FailBoth {
		for i := range global.Routers {
			if global.Routers[i].NoFail {
				continue
			}
			v := m.AddVar("R:" + global.Routers[i].Name)
			fv.kindOf = append(fv.kindOf, varRouter)
			if sr := sub.RouterIndex[i]; sr >= 0 {
				fv.routerVar[sr] = v
				fv.elemOf = append(fv.elemOf, int32(sr))
			} else {
				fv.elemOf = append(fv.elemOf, -1)
			}
		}
	}
	return fv
}

// NumVars returns the number of allocated failure variables.
func (fv *FailVars) NumVars() int { return len(fv.kindOf) }

// LinkVar returns the variable of link l, or -1 if the link cannot fail.
func (fv *FailVars) LinkVar(l topo.LinkID) int { return fv.linkVar[l] }

// RouterVar returns the variable of router r, or -1 if it cannot fail.
func (fv *FailVars) RouterVar(r topo.RouterID) int { return fv.routerVar[r] }

// VarElement returns what variable v models: a link ID (isLink true) or a
// router ID (isLink false).
func (fv *FailVars) VarElement(v int) (linkID topo.LinkID, routerID topo.RouterID, isLink bool) {
	if fv.kindOf[v] == varLink {
		return topo.LinkID(fv.elemOf[v]), 0, true
	}
	return 0, topo.RouterID(fv.elemOf[v]), false
}

// RouterUp returns the guard "router r is alive".
func (fv *FailVars) RouterUp(r topo.RouterID) *mtbdd.Node {
	if v := fv.routerVar[r]; v >= 0 {
		return fv.M.Var(v)
	}
	return fv.M.One()
}

// LinkUp returns the guard "link l is alive" (endpoints not included).
func (fv *FailVars) LinkUp(l topo.LinkID) *mtbdd.Node {
	if v := fv.linkVar[l]; v >= 0 {
		return fv.M.Var(v)
	}
	return fv.M.One()
}

// EdgeUp returns the guard "the directed link e is usable": the link and
// both endpoint routers are alive.
func (fv *FailVars) EdgeUp(e topo.DirEdge) *mtbdd.Node {
	g := fv.LinkUp(e.DirLink.Link())
	g = fv.M.And(g, fv.RouterUp(e.From))
	return fv.M.And(g, fv.RouterUp(e.To))
}

// Reduce applies the k-failure-equivalence reduction with the pipeline's
// budget (§5.2). It is the hook every phase of symbolic simulation uses to
// keep MTBDDs small; a disabled budget (<0) returns f unchanged, which is
// the "YU w/o MTBDD reduction" ablation of Fig 15/16.
func (fv *FailVars) Reduce(f *mtbdd.Node) *mtbdd.Node { return fv.M.KReduce(f, fv.K) }

// The ReduceOp helpers compute Reduce(op(...)) through the fused
// k-budgeted kernels: one DFS that constructs the KREDUCEd result
// directly instead of materializing the unreduced intermediate. With a
// disabled budget (K < 0) the kernels are the plain operators, matching
// Reduce's identity behavior, so the ablation mode needs no special-casing
// at call sites.

// ReduceAdd returns Reduce(f + g).
func (fv *FailVars) ReduceAdd(f, g *mtbdd.Node) *mtbdd.Node {
	return fv.M.AddK(f, g, fv.K)
}

// ReduceMul returns Reduce(f * g).
func (fv *FailVars) ReduceMul(f, g *mtbdd.Node) *mtbdd.Node {
	return fv.M.MulK(f, g, fv.K)
}

// ReduceDiv returns Reduce(f / g) with Div's zero-denominator convention.
func (fv *FailVars) ReduceDiv(f, g *mtbdd.Node) *mtbdd.Node {
	return fv.M.DivK(f, g, fv.K)
}

// ReduceMin returns Reduce(min(f, g)).
func (fv *FailVars) ReduceMin(f, g *mtbdd.Node) *mtbdd.Node {
	return fv.M.MinK(f, g, fv.K)
}

// ReduceAnd returns Reduce(f ∧ g) for {0,1} guards.
func (fv *FailVars) ReduceAnd(f, g *mtbdd.Node) *mtbdd.Node {
	return fv.M.AndK(f, g, fv.K)
}

// ReduceOr returns Reduce(f ∨ g) for {0,1} guards.
func (fv *FailVars) ReduceOr(f, g *mtbdd.Node) *mtbdd.Node {
	return fv.M.OrK(f, g, fv.K)
}

// ReduceMulAdd returns Reduce(acc + w*f) as one fused ternary DFS — the
// weighted-accumulate of ECMP splitting and SR path weighting.
func (fv *FailVars) ReduceMulAdd(acc, w, f *mtbdd.Node) *mtbdd.Node {
	return fv.M.MulAddK(acc, w, f, fv.K)
}

// ReduceSumMul returns Reduce(Σ vols[i]·fs[i]), summed in operand order, in
// one n-ary walk: per-link load aggregation. It is the node the
// ReduceMulAdd chain over the operands returns.
func (fv *FailVars) ReduceSumMul(vols []float64, fs []*mtbdd.Node) *mtbdd.Node {
	return fv.M.SumMulK(vols, fs, fv.K)
}

// ReducePrefixMax returns, for every prefix of the operands, the largest
// in-budget value of its weighted sum — the upper Range end of
// ReduceSumMul over that prefix — without building a node.
func (fv *FailVars) ReducePrefixMax(vols []float64, fs []*mtbdd.Node) []float64 {
	return fv.M.PrefixMaxK(vols, fs, fv.K)
}

// ReduceSum returns Reduce(Σ fs) as a balanced tree of fused additions.
// Only sound where terminal values are exact (e.g. 0/1 selection-guard
// sums): float addition is not associative in general, and re-association
// would perturb byte-identity of reports on fractional accumulations.
func (fv *FailVars) ReduceSum(fs []*mtbdd.Node) *mtbdd.Node {
	return fv.M.AddNK(fs, fv.K)
}

// selectable reports whether a route with presence guard g can be
// selected within the failure budget when it loses to every route whose
// presence is covered by better: g ∧ ¬better holds in some scenario with
// at most K failures. The fused kernel answers without materialising the
// unreduced product; its result is also the route's selection guard.
func (fv *FailVars) selectable(g, better *mtbdd.Node) bool {
	return fv.ReduceAnd(g, fv.M.Not(better)) != fv.M.Zero()
}

// Scenario converts a set of failed elements into a variable assignment
// (true = alive) suitable for mtbdd.Eval. Unknown/unfailable elements are
// ignored.
func (fv *FailVars) Scenario(failedLinks []topo.LinkID, failedRouters []topo.RouterID) []bool {
	assign := make([]bool, fv.M.NumVars())
	for i := range assign {
		assign[i] = true
	}
	for _, l := range failedLinks {
		if v := fv.linkVar[l]; v >= 0 {
			assign[v] = false
		}
	}
	for _, r := range failedRouters {
		if v := fv.routerVar[r]; v >= 0 {
			assign[v] = false
		}
	}
	return assign
}
