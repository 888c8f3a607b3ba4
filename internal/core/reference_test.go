package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// The check stage as it stood before the n-ary kernels and the per-link
// class index, kept as the reference the production stage is held to: the
// flows × links map scan, the per-class ReduceMulAdd left fold, and the
// pruned loop that folded, took Range and tested its two stop rules class
// by class. Production must return the same node for every load, stop every
// pruned check at the same class, and report the same witness and value —
// pointer and DeepEqual equality, on the primary manager and on a check
// shard.

// refLinkClasses probes every STF's link map for l, in STF order.
func refLinkClasses(sc scanCtx, l topo.DirLinkID, stat *LinkCheckStat) []scanClass {
	g := sc.grouper(!sc.v.e.opts.DisableLinkLocalEquiv)
	for _, s := range sc.v.stfs {
		if w := s.Links[l]; w != nil {
			stat.Flows++
			g.add(w, s.Flow.Gbps)
		}
	}
	stat.Classes += len(g.classes)
	return g.classes
}

// refSum is the deleted fold: one fused multiply-accumulate per class, each
// re-walking the running sum.
func refSum(sc scanCtx, classes []scanClass) *mtbdd.Node {
	tau := sc.m.Zero()
	for _, c := range classes {
		tau = sc.fv.ReduceMulAdd(tau, sc.m.Const(c.vol), c.w)
	}
	return tau
}

// refLoad is scanCtx.load over the reference fold (and, for links, the
// reference class scan).
func refLoad(sc scanCtx, s Subject) (*mtbdd.Node, LinkCheckStat) {
	var stat LinkCheckStat
	switch {
	case len(s.Links) > 0:
		stat.Kind = "aggregate"
		taus := make([]*mtbdd.Node, len(s.Links))
		for i, l := range s.Links {
			taus[i] = refSum(sc, refLinkClasses(sc, l, &stat))
		}
		if s.Max {
			tau := sc.m.Zero()
			for _, t := range taus {
				tau = sc.m.MaxK(tau, t, sc.fv.K)
			}
			return tau, stat
		}
		return sc.m.AddNK(taus, sc.fv.K), stat
	case s.Prefix.IsValid():
		stat.Kind, stat.Prefix = "delivered", s.Prefix
		return refSum(sc, sc.deliveredClasses(s.Prefix, &stat)), stat
	}
	stat.Link = s.Link
	return refSum(sc, refLinkClasses(sc, s.Link, &stat)), stat
}

// refCheckLinkPruned is the pruned loop before the n-ary kernels. stop is
// the number of classes folded when a stop rule fired (0 for the quick
// bound); holds reports a link passed without a terminal scan.
func refCheckLinkPruned(sc scanCtx, it checkItem) (stat LinkCheckStat, viols []Violation, stop int, holds bool) {
	m := sc.m
	l, limit := it.subject.Link, it.check.Max
	stat = LinkCheckStat{Link: l}
	classes := refLinkClasses(sc, l, &stat)
	for i := range classes {
		_, hi := m.Range(classes[i].w)
		classes[i].max = hi
	}
	threshold := violThreshold(limit)
	total := 0.0
	for _, c := range classes {
		total += float64(c.vol * c.max)
	}
	if total <= threshold {
		return stat, nil, 0, true
	}
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].vol*classes[i].max > classes[j].vol*classes[j].max })
	remaining := total
	tau := m.Zero()
	for _, c := range classes {
		tau = sc.fv.ReduceMulAdd(tau, m.Const(c.vol), c.w)
		stop++
		remaining -= float64(c.vol * c.max)
		_, hi := m.Range(tau)
		if hi > threshold {
			break
		}
		if hi+remaining <= threshold {
			return stat, nil, stop, true
		}
	}
	res, _ := sc.scanPortfolio(tau, []LinkCheck{it.check})
	if r := &res[0]; r.Violated {
		assign := sc.fv.Scenario(r.FailedLinks, r.FailedRouters)
		exact := 0.0
		for _, c := range classes {
			exact += float64(c.vol * m.Eval(c.w, assign))
		}
		if exact > r.Value {
			r.Value = exact
		}
	}
	return stat, violations(it, res[0]), stop, false
}

// sameStat compares what a check reports about its effort, Elapsed aside.
func sameStat(a, b LinkCheckStat) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return a == b
}

// compareWithReference holds one scan context to the reference on every
// directed link's load and on every item of a Run request — the spec's
// bounds, its delivered bounds and the all-links overload check at each of
// the given factors, pruned unless the engine's ablation says otherwise.
// linkStride > 1 samples the full-load comparison (the reference fold is
// what made the check stage slow).
func compareWithReference(sc scanCtx, spec *config.Spec, factors []float64, linkStride int) error {
	v := sc.v
	net := v.e.net
	for d := 0; d < 2*net.NumLinks(); d += linkStride {
		sc.maybeGC()
		s := Subject{Link: topo.DirLinkID(d)}
		got, gstat := sc.load(s)
		want, wstat := refLoad(sc, s)
		if got != want {
			return fmt.Errorf("load of %s: node differs from the reference fold's (%d vs %d nodes)",
				net.DirLinkName(s.Link), sc.m.NodeCount(got), sc.m.NodeCount(want))
		}
		if !sameStat(gstat, wstat) {
			return fmt.Errorf("load of %s: stat %+v, reference %+v", net.DirLinkName(s.Link), gstat, wstat)
		}
	}
	if net.NumLinks() >= 2 {
		for _, max := range []bool{false, true} {
			s := Subject{Links: []topo.DirLinkID{0, 1, 2, 3}, Max: max}
			got, gstat := sc.load(s)
			if want, wstat := refLoad(sc, s); got != want || !sameStat(gstat, wstat) {
				return fmt.Errorf("aggregate load (max=%v) differs from the reference", max)
			}
		}
	}
	for _, factor := range factors {
		for _, it := range lower(net, spec.Props, spec.Delivered, factor, !v.e.opts.DisableEarlyTermination) {
			name := net.DirLinkName(it.subject.Link)
			if it.subject.Prefix.IsValid() {
				name = "delivered " + it.subject.Prefix.String()
			}
			sc.maybeGC()
			gstat, gviols := sc.check(it)
			var wstat LinkCheckStat
			var wviols []Violation
			if it.pruned {
				var wstop int
				var wholds bool
				wstat, wviols, wstop, wholds = refCheckLinkPruned(sc, it)
				var scratch LinkCheckStat
				gstop, gholds := sc.prune(sc.linkClasses(it.subject.Link, &scratch), violThreshold(it.check.Max))
				if gstop != wstop || gholds != wholds {
					return fmt.Errorf("pruned check of %s at factor %g: stops at class %d (holds %v), reference at %d (holds %v)",
						name, factor, gstop, gholds, wstop, wholds)
				}
			} else {
				tau, st := refLoad(sc, it.subject)
				res, _ := sc.scanPortfolio(tau, []LinkCheck{it.check})
				wstat, wviols = st, violations(it, res[0])
			}
			if !sameStat(gstat, wstat) {
				return fmt.Errorf("check of %s at factor %g: stat %+v, reference %+v", name, factor, gstat, wstat)
			}
			if !reflect.DeepEqual(gviols, wviols) {
				return fmt.Errorf("check of %s at factor %g: violations %+v, reference %+v", name, factor, gviols, wviols)
			}
		}
	}
	return nil
}

// compareVerifier runs compareWithReference on the verifier's primary
// manager and on a fresh check shard, whose full loads are sampled
// shardStride times as sparsely as the primary's.
func compareVerifier(v *Verifier, spec *config.Spec, factors []float64, linkStride, shardStride int) error {
	if err := v.Err(); err != nil {
		return err
	}
	if err := compareWithReference(v.primaryScan(), spec, factors, linkStride); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if err := compareWithReference(v.shardScan(), spec, factors, linkStride*shardStride); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// referenceFactors spread the overload limit so that all three ends of the
// pruned check occur: links the quick bound passes, links a prefix maximum
// settles, and links that stop on a violation.
var referenceFactors = []float64{1.0, 0.5, 0.1}

// TestCheckMatchesReferenceTestdata: every checked-in spec, at every budget
// from 0 to 3 in all three failure modes, and under the three ablations
// that change what the check stage aggregates.
func TestCheckMatchesReferenceTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	sub, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "subprefix", "*.yu"))
	modes := []topo.FailureMode{topo.FailLinks, topo.FailRouters, topo.FailBoth}
	for _, file := range append(files, sub...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := config.ParseSpecString(string(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			for k := 0; k <= 3; k++ {
				name := fmt.Sprintf("%s/%v/k=%d", filepath.Base(file), mode, k)
				eng := buildEngine(t, spec, mode, k, Options{})
				if err := compareVerifier(NewVerifier(eng, spec.Flows), spec, referenceFactors, 1, 1); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
		for name, tc := range map[string]struct {
			k    int
			opts Options
		}{
			"no-link-local-equiv":  {2, Options{DisableLinkLocalEquiv: true}},
			"no-early-termination": {2, Options{DisableEarlyTermination: true}},
			"no-kreduce":           {-1, Options{CheckK: 2}},
		} {
			if tc.k < 0 && spec.Net.NumRouters() > 10 {
				continue // unreduced execution of wan-1 alone takes minutes
			}
			eng := buildEngine(t, spec, topo.FailLinks, tc.k, tc.opts)
			if err := compareVerifier(NewVerifier(eng, spec.Flows), spec, referenceFactors, 1, 1); err != nil {
				t.Errorf("%s/%s: %v", filepath.Base(file), name, err)
			}
		}
	}
}

// benchShape is one of the repository benchmark's three WAN inputs
// (benchmark/workloads.go) at seed 13: topology and traffic.
type benchShape struct {
	name                     string
	routers, links, prefixes int
	topoSeed                 int64
	flows                    int
	flowSeed                 int64
	k                        int
}

var benchShapes = []benchShape{
	{"wan-k1", 120, 300, 60, 11, 6000, 13*4 + 101, 1},
	{"wan-k2", 50, 100, 32, 3, 2500, 13*4 + 100, 2},
	{"portfolio-1k", 80, 160, 48, 10, 4000, 13*4 + 100, 1},
}

func (sh benchShape) spec(tb testing.TB) *config.Spec {
	tb.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: sh.routers, Links: sh.links, Prefixes: sh.prefixes, SRPolicyFraction: 0.1, Seed: sh.topoSeed})
	if err != nil {
		tb.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: sh.flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: sh.flowSeed})
	if err != nil {
		tb.Fatal(err)
	}
	spec.K = sh.k
	return spec
}

func (sh benchShape) verifier(tb testing.TB, opts Options) (*config.Spec, *Verifier) {
	tb.Helper()
	spec := sh.spec(tb)
	v := NewVerifier(buildEngine(tb, spec, topo.FailLinks, sh.k, opts), spec.Flows)
	if err := v.Err(); err != nil {
		tb.Fatal(err)
	}
	return spec, v
}

// TestCheckMatchesReferenceBenchShapes: the three benchmark WANs, where a
// link carries a hundred classes and more. Every pruned check is compared,
// on the primary and on a shard; the full loads, whose reference fold is the
// slow part, on every link of the primary and one in four on the shard
// (-short: one in eight and one in thirty-two).
func TestCheckMatchesReferenceBenchShapes(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	for _, sh := range benchShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			// A low collection threshold: the reference folds leave a
			// million dead nodes behind on these inputs.
			spec, v := sh.verifier(t, Options{GCThreshold: 1 << 18})
			if err := compareVerifier(v, spec, []float64{1.0}, stride, 4); err != nil {
				t.Error(err)
			}
		})
	}
}
