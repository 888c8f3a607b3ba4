package core

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// sharedClasses counts the verifier's classes that took an earlier class's
// STF from the engine's memo instead of executing.
func sharedClasses(v *Verifier) int {
	n := 0
	for _, s := range v.stfs {
		if s.shared {
			n++
		}
	}
	return n
}

// compareExecutionPaths holds the execution of one input to the reference
// (reference_test.go), and with ablation set the DisableGlobalEquiv run as
// well: it must share nothing and still agree.
func compareExecutionPaths(t testing.TB, name string, spec *config.Spec, mode topo.FailureMode, k int, ablation bool) {
	t.Helper()
	v := NewVerifier(buildEngine(t, spec, mode, k, Options{}), spec.Flows)
	if err := compareExecution(v); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if !ablation {
		return
	}
	abl := NewVerifier(buildEngine(t, spec, mode, k, Options{DisableGlobalEquiv: true}), spec.Flows)
	if err := compareExecution(abl); err != nil {
		t.Errorf("%s without global equivalence: %v", name, err)
	}
	if n := sharedClasses(abl); n != 0 {
		t.Errorf("%s: %d classes shared an STF with global equivalence disabled", name, n)
	}
}

// testdataSpecs parses every checked-in spec, the sub-prefix ones included.
func testdataSpecs(t testing.TB) map[string]*config.Spec {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.yu"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	sub, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "subprefix", "*.yu"))
	specs := make(map[string]*config.Spec)
	for _, file := range append(files, sub...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := config.ParseSpecString(string(data))
		if err != nil {
			t.Fatal(err)
		}
		specs[filepath.Base(file)] = spec
	}
	return specs
}

// TestExecutionMatchesReferenceTestdata: every checked-in spec, at every
// budget from 0 to 3 in all three failure modes and with no reduction at all;
// without global equivalence at k=2.
func TestExecutionMatchesReferenceTestdata(t *testing.T) {
	for file, spec := range testdataSpecs(t) {
		for _, mode := range []topo.FailureMode{topo.FailLinks, topo.FailRouters, topo.FailBoth} {
			for k := 0; k <= 3; k++ {
				compareExecutionPaths(t, fmt.Sprintf("%s/%v/k=%d", file, mode, k), spec, mode, k, mode == topo.FailLinks && k == 2)
			}
		}
		if spec.Net.NumRouters() <= 10 { // unreduced execution of wan-1 takes minutes
			compareExecutionPaths(t, file+"/no-kreduce", spec, topo.FailLinks, -1, false)
		}
	}
}

// TestExecutionMatchesReferenceBenchShapes: the three benchmark WANs, where
// a quarter to two fifths of the classes repeat a behaviour.
func TestExecutionMatchesReferenceBenchShapes(t *testing.T) {
	for _, sh := range benchShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			compareExecutionPaths(t, sh.name, sh.spec(t), topo.FailLinks, sh.k, true)
		})
	}
}

// dscpNet is a triangle A, B, C in one AS with the destination prefix at C
// and a stub router D behind C that no flow from A ever reaches. The slot
// takes the configuration under test. f0 and f5 enter at A for the same
// destination class and differ in DSCP only: two global classes that are one
// behaviour exactly when no router on their way tells the DSCPs apart.
const dscpNet = `
router A as 1 loopback 10.0.0.1
router B as 1 loopback 10.0.0.2
router C as 1 loopback 10.0.0.3
router D as 1 loopback 10.0.0.4
link A B cost 1 capacity 100
link B C cost 1 capacity 100
link A C cost 1 capacity 100
link C D cost 1 capacity 100
auto-bgp-mesh
config C
  network 100.0.0.0/24
%s
flow f0 ingress A src 11.0.0.1 dst 100.0.0.5 dscp 0 gbps 8
flow f5 ingress A src 11.0.0.1 dst 100.0.0.6 dscp 5 gbps 4
`

// TestDSCPSharing is the table for the DSCP-sensitivity rule: each case says
// whether the second class may take the first one's STF, and in every case
// both STFs are the reference's, node for node.
func TestDSCPSharing(t *testing.T) {
	viaB := "    path 10.0.0.2 10.0.0.3 weight 1\n"
	for _, tc := range []struct {
		name, config string
		opts         Options
		shared       bool
	}{
		{"no policy anywhere", "", Options{}, true},
		{"DSCP-specific policy on the resolved path",
			"config A\n  sr-policy 10.0.0.3/32 dscp 5\n" + viaB, Options{}, false},
		{"DSCP-specific policy for a DSCP neither flow carries",
			"config A\n  sr-policy 10.0.0.3/32 dscp 7\n" + viaB, Options{}, false},
		{"DSCP-specific policy one hop down the failover path",
			"config B\n  sr-policy 10.0.0.3/32 dscp 5\n    path 10.0.0.1 10.0.0.3 weight 1\n", Options{}, false},
		{"DSCP-specific policy on a router the flows never reach",
			"config D\n  sr-policy 10.0.0.3/32 dscp 5\n" + viaB, Options{}, true},
		{"DSCP-specific policy whose endpoint does not cover the next hop",
			"config A\n  sr-policy 10.0.0.2/32 dscp 5\n    path 10.0.0.3 10.0.0.2 weight 1\n", Options{}, true},
		{"DSCP-specific policy shadowed by an earlier wildcard policy",
			"config A\n  sr-policy 10.0.0.3/32\n" + viaB + "  sr-policy 10.0.0.3/32 dscp 5\n    path 10.0.0.3 weight 1\n", Options{}, true},
		{"wildcard policy after a DSCP-specific one",
			"config A\n  sr-policy 10.0.0.3/32 dscp 5\n    path 10.0.0.3 weight 1\n  sr-policy 10.0.0.3/32\n" + viaB, Options{}, false},
		{"DSCP-specific policy behind a self-path chain cut at maxSRChain",
			"config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.1 weight 1\n  sr-policy 10.0.0.3/32 dscp 5\n" + viaB, Options{}, true},
		{"DSCP-specific policy met after the stack is exhausted, in the inlined IP step",
			"config A\n  sr-policy 10.0.0.3/32\n    path 10.0.0.2 weight 1\nconfig B\n  sr-policy 10.0.0.3/32 dscp 5\n    path 10.0.0.1 10.0.0.3 weight 1\n", Options{}, false},
		{"indirect static whose via-loopback a DSCP-specific policy covers",
			"config A\n  static 100.0.0.0/24 via 10.0.0.3\n  sr-policy 10.0.0.3/32 dscp 5\n" + viaB, Options{}, false},
		{"indirect static, wildcard policy",
			"config A\n  static 100.0.0.0/24 via 10.0.0.3\n  sr-policy 10.0.0.3/32\n" + viaB, Options{}, true},
		{"global equivalence disabled", "", Options{DisableGlobalEquiv: true}, false},
	} {
		fx := newFixture(t, fmt.Sprintf(dscpNet, tc.config), topo.FailLinks, 1, tc.opts)
		if err := compareExecution(fx.ver); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		stfs := fx.ver.stfs
		if len(stfs) != 2 || stfs[0].shared {
			t.Fatalf("%s: want two classes, the first executed", tc.name)
		}
		if stfs[1].shared != tc.shared {
			t.Errorf("%s: second class shared = %v, want %v", tc.name, stfs[1].shared, tc.shared)
		}
		// Steps follow the same rule: the executions built a step under a
		// DSCP of its own exactly where they may not share the STF.
		perDSCP := 0
		for k := range fx.eng.steps {
			if k.dscp != anyDSCP {
				perDSCP++
			}
		}
		if wantNone := tc.shared || tc.opts.DisableGlobalEquiv; (perDSCP == 0) != wantNone {
			t.Errorf("%s: %d steps keyed by their DSCP, want none = %v", tc.name, perDSCP, wantNone)
		}
	}
}

// twinPrefixNet is two routers B and C of one AS that both originate the
// prefix, at equal IGP cost from A and from D.
const twinPrefixNet = `
router A as 1 loopback 10.0.0.1
router B as 1 loopback 10.0.0.2
router C as 1 loopback 10.0.0.3
router D as 1 loopback 10.0.0.4
link A B cost 1 capacity 100
link A C cost 1 capacity 100
link B D cost 1 capacity 100
link C D cost 1 capacity 100
auto-bgp-mesh
config B
  network 100.0.0.0/24
config C
  network 100.0.0.0/24
flow f1 ingress A src 11.0.0.1 dst 100.0.0.5 gbps 8
flow f2 ingress A src 11.0.0.1 dst 100.0.1.5 gbps 4
`

// TestForwardingClassSeparatesLocalPref: two prefixes whose RIB rows are the
// same candidates at every router are one forwarding class and share steps
// and STFs; raise one candidate's local preference for one of them at one
// router — same guards, same next hops, another rank grouping — and they
// must part. Route simulation cannot produce the second prefix from a spec
// (local preference is per neighbor), so the rows are copied in by hand.
func TestForwardingClassSeparatesLocalPref(t *testing.T) {
	spec, err := config.ParseSpecString(twinPrefixNet)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := netip.MustParsePrefix("100.0.0.0/24"), netip.MustParsePrefix("100.0.1.0/24")
	for _, bump := range []bool{false, true} {
		fv := routesim.NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, 1)
		rs, err := routesim.Run(fv, spec.Configs)
		if err != nil {
			t.Fatal(err)
		}
		for r := range rs.BGP.RIBs {
			rs.BGP.RIBs[r][p2] = rs.BGP.RIBs[r][p1]
		}
		if bump {
			a, _ := spec.Net.RouterByName("A")
			rows := rs.BGP.RIBs[a.ID][p1]
			if len(rows) < 2 || !rows[0].SameRank(rows[1]) {
				t.Fatalf("A should hold two tied candidates for %v, has %d", p1, len(rows))
			}
			first := *rows[0]
			first.LocalPref++
			rs.BGP.RIBs[a.ID][p2] = append([]*routesim.BGPCand{&first}, rows[1:]...)
		}
		v := NewVerifier(NewEngine(rs, Options{}), spec.Flows)
		if err := compareExecution(v); err != nil {
			t.Fatalf("bump=%v: %v", bump, err)
		}
		if len(v.stfs) != 2 {
			t.Fatalf("bump=%v: %d classes, want 2", bump, len(v.stfs))
		}
		if v.stfs[1].shared == bump {
			t.Errorf("bump=%v: second prefix's class shared = %v", bump, v.stfs[1].shared)
		}
		if same := linkNode(v.stfs[0], 0) == linkNode(v.stfs[1], 0) && len(v.stfs[0].Links) == len(v.stfs[1].Links); same == bump {
			t.Errorf("bump=%v: the two prefixes forward alike = %v", bump, same)
		}
	}
}

// budgetSweepSpec is testdata/motivating.yu with a twin of its prefix — same
// origin, so the same rows at every router — and a flow to the twin from each
// ingress: four classes, two behaviours, so a budget breach can land on an
// executing class and on one about to take its twin's STF.
func budgetSweepSpec(t testing.TB) *config.Spec {
	t.Helper()
	text := strings.Replace(paperex.Motivating, "network 100.0.0.0/24", "network 100.0.0.0/24\n  network 100.0.1.0/24", 1) +
		"\nflow f3 ingress A src 11.0.0.1 dst 100.0.1.1 dscp 0 gbps 10\nflow f4 ingress B src 11.0.0.2 dst 100.0.1.2 dscp 5 gbps 10\n"
	spec, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBudgetSweepExecution sweeps the node budget from 1 up past what an
// unbudgeted run needs. Wherever the run completes its report is the
// unbudgeted run's, and wherever it breaches it fails with the typed error;
// either way the engine — which may have left ExecuteFlow by panic any number
// of times, with its scratch mid-flow — executes every flow afterwards to the
// reference's nodes.
func TestBudgetSweepExecution(t *testing.T) {
	spec := budgetSweepSpec(t)
	run := func(opts Options) (*Engine, *Verifier, *Report, error) {
		eng := buildEngine(t, spec, topo.FailLinks, 1, opts)
		v := NewVerifier(eng, spec.Flows)
		rep, err := v.Run(spec.Props, spec.Delivered, 0.95)
		return eng, v, rep, err
	}
	eng, v, want, err := run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := sharedClasses(v); n != 2 {
		t.Fatalf("the unbudgeted run shares %d of its %d classes, want 2", n, len(v.stfs))
	}
	top := eng.m.Stats().PeakUnique + 64
	stride := 1
	if testing.Short() {
		stride = 7
	}
	breaches := 0
	for budget := 1; budget <= top; budget += stride {
		name := fmt.Sprintf("budget %d", budget)
		eng, _, rep, err := run(Options{NodeBudget: budget})
		if eng.m.GCRuns() > 0 {
			breaches++ // a collection at this size is the ladder's retry
		}
		if err != nil && !errors.Is(err, govern.ErrNodeBudget) {
			t.Fatalf("%s: %v", name, err)
		}
		if err == nil {
			reportsEqual(t, name, want, rep)
		}
		// What the breaches left behind must not show: with the budget
		// lifted, every flow executes — or takes a memoized STF — to the
		// reference's nodes.
		eng.m.SetNodeBudget(0)
		ref := newRefExec(eng)
		for _, f := range spec.Flows {
			if err := sameSTF(eng.ExecuteFlow(f), ref.executeFlow(f)); err != nil {
				t.Fatalf("%s: after the run, flow %v: %v", name, f, err)
			}
		}
	}
	if breaches == 0 {
		t.Fatal("the sweep never breached a budget")
	}
}

// TestExecuteAfterUnwind breaks one execution at every possible node count:
// a budget of b nodes above what route simulation left makes ExecuteFlow
// panic out after creating b nodes, wherever in the wavefront that is. The
// same engine must then execute every flow to the reference's nodes, and
// must have memoized nothing from the broken execution.
func TestExecuteAfterUnwind(t *testing.T) {
	spec := budgetSweepSpec(t)
	unwound := 0
	for extra := 1; ; extra++ {
		eng := buildEngine(t, spec, topo.FailLinks, 1, Options{})
		eng.m.SetNodeBudget(eng.m.Stats().Live + extra)
		err := mtbdd.Guard(func() { eng.ExecuteFlow(spec.Flows[0]) })
		eng.m.SetNodeBudget(0)
		if err == nil {
			break // the budget no longer cuts the first flow short
		}
		if !errors.Is(err, govern.ErrNodeBudget) {
			t.Fatal(err)
		}
		unwound++
		if len(eng.memo) != 0 {
			t.Fatalf("budget +%d: a broken execution left %d memo entries", extra, len(eng.memo))
		}
		ref := newRefExec(eng)
		for _, f := range spec.Flows {
			if err := sameSTF(eng.ExecuteFlow(f), ref.executeFlow(f)); err != nil {
				t.Fatalf("budget +%d: flow %v after the unwind: %v", extra, f, err)
			}
		}
	}
	if unwound == 0 {
		t.Fatal("no budget cut the first flow short")
	}
}

// TestExecutionCountersRepeat: executing one input three times in one process
// does exactly the same MTBDD work each time — no map is iterated on the
// execution path, so node ids, the fused table's canonical operand order and
// its slots repeat. A claim may therefore rest on these counts.
func TestExecutionCountersRepeat(t *testing.T) {
	sr := testdataSpecs(t)["sranycast.yu"]
	for _, in := range []struct {
		name string
		spec *config.Spec
		k    int
	}{{"wan-k2", benchShapes[1].spec(t), 2}, {"sranycast", sr, 2}} {
		var first mtbdd.Stats
		for i := 0; i < 3; i++ {
			eng := buildEngine(t, in.spec, topo.FailLinks, in.k, Options{})
			if err := NewVerifier(eng, in.spec.Flows).Err(); err != nil {
				t.Fatal(err)
			}
			st := eng.m.Stats()
			if i == 0 {
				first = st
				continue
			}
			if st.Created != first.Created || st.Fused != first.Fused || st.KReduce != first.KReduce ||
				st.Neg != first.Neg || st.FusionCuts != first.FusionCuts {
				t.Errorf("%s run %d: created %d fused %+v kreduce %+v neg %+v cuts %d; first run %d %+v %+v %+v %d",
					in.name, i, st.Created, st.Fused, st.KReduce, st.Neg, st.FusionCuts,
					first.Created, first.Fused, first.KReduce, first.Neg, first.FusionCuts)
			}
		}
	}
}

// servingCache is a carrier that serves the classes it was primed with —
// the class of key, STF at[key].i of at[key].l — keeps nothing new, and
// counts what the last build carried and executed.
type servingCache struct {
	NoCarrier
	at          map[routesim.Fingerprint]sealedAt
	hits, built int
}

type sealedAt struct {
	l *SealedSTFs
	i int
}

// serve primes the cache with stfs, sealed as one list, each under its
// class's key.
func (c *servingCache) serve(e *Engine, stfs []*FlowSTF) {
	l := SealSTFs(e.m, stfs)
	for i, k := range ClassKeys(e, flowsOf(stfs)) {
		c.at[k] = sealedAt{l, i}
	}
}

func (c *servingCache) CarriedSTF(key routesim.Fingerprint) (*SealedSTFs, int, bool) {
	s, ok := c.at[key]
	return s.l, s.i, ok
}

func (c *servingCache) CarrySTFs(carried, keys []routesim.Fingerprint, _ *SealedSTFs) {
	c.hits, c.built = len(carried), len(keys)
}

// TestExecAccounting: every class is accounted for once, however it got its
// STF — exec.flows_executed + exec.classes_shared + the classes a cache
// served = classes — executed, cache-served, assembled from
// another engine's STFs, and with global equivalence off, where nothing is
// shared; exec.classes_imported counts, among them, those that crossed
// managers.
func TestExecAccounting(t *testing.T) {
	spec := benchShapes[2].spec(t)
	count := func(name string, reg *obs.Registry, v *Verifier, cached, wantShared, wantImported int) {
		t.Helper()
		if err := v.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := reg.Snapshot().Counters
		executed, shared, imported := int(c["exec.flows_executed"]), int(c["exec.classes_shared"]), int(c["exec.classes_imported"])
		if executed+shared+cached != len(v.classes) {
			t.Errorf("%s: %d executed + %d shared + %d cache-served != %d classes", name, executed, shared, cached, len(v.classes))
		}
		if wantShared >= 0 && shared != wantShared {
			t.Errorf("%s: %d classes shared, want %d", name, shared, wantShared)
		}
		if imported != wantImported {
			t.Errorf("%s: %d classes imported, want %d", name, imported, wantImported)
		}
		if got := sharedClasses(v); got != shared {
			t.Errorf("%s: %d STFs marked shared, counter says %d", name, got, shared)
		}
		if cached == 0 && c["exec.steps_built"] == 0 || c["exec.prefixes"] < c["exec.forwarding_classes"] {
			t.Errorf("%s: steps built %d, forwarding classes %d over %d prefixes", name,
				c["exec.steps_built"], c["exec.forwarding_classes"], c["exec.prefixes"])
		}
	}
	engine := func(reg *obs.Registry, opts Options) *Engine {
		opts.Obs = reg
		return buildEngine(t, spec, topo.FailLinks, 1, opts)
	}

	reg := obs.New()
	seq := NewVerifier(engine(reg, Options{}), spec.Flows)
	count("sequential", reg, seq, 0, 836, 0)
	if c := reg.Snapshot().Counters; c["exec.forwarding_classes"] != 39 || c["exec.prefixes"] != 48 {
		t.Errorf("sequential: %d forwarding classes over %d prefixes, want 39 over 48", c["exec.forwarding_classes"], c["exec.prefixes"])
	}

	reg = obs.New()
	count("no global equivalence", reg, NewVerifier(engine(reg, Options{DisableGlobalEquiv: true}), spec.Flows), 0, 0, 0)

	// A cache that holds every other class of the sequential run's engine,
	// none of them marked shared: a served class is not counted as one.
	cache := &servingCache{at: make(map[routesim.Fingerprint]sealedAt)}
	var served []*FlowSTF
	for i, s := range seq.stfs {
		if i%2 == 0 {
			own := *s
			own.shared = false
			served = append(served, &own)
		}
	}
	cache.serve(seq.e, served)
	reg = obs.New()
	seq.e.count = newExecCounters(reg)
	seq.e.opts.STFCache = cache
	count("cache-served", reg, NewVerifier(seq.e, spec.Flows), len(served), -1, 0)
	if cache.hits != len(served) {
		t.Errorf("cache served %d classes, holds %d", cache.hits, len(served))
	}

	// Assembled: every third class arrives sealed from the sequential run's
	// manager — shared ones keep saying so — the rest execute here.
	var picked []*FlowSTF
	var at []int
	for i, s := range seq.stfs {
		if i%3 == 0 {
			picked = append(picked, s)
			at = append(at, i)
		}
	}
	reg = obs.New()
	count("assembled", reg, NewAssembledVerifier(engine(reg, Options{}), spec.Flows, []*SealedSTFs{SealSTFs(seq.e.m, picked)}, [][]int{at}), 0, -1, len(picked))
}
