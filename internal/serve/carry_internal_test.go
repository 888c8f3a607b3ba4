// White-box tests of what a warm build carries from the build before it:
// the results of the checks whose inputs did not move, and the stored
// classes, replayed once per list.
package serve

import (
	"errors"
	"net/netip"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// deltaKind is one op of the daemon's vocabulary on a generated WAN: the
// delta (after setup, for a removal), and the delta that undoes it.
type deltaKind struct {
	op              string
	setup, do, undo []Delta
}

// deltaKinds is one delta of every op on spec, the benchmark's daemon
// vocabulary, each with its undo.
func deltaKinds(t testing.TB, spec *config.Spec) []deltaKind {
	t.Helper()
	net := spec.Net
	// The first BGP speaker's first iBGP session: most of the benchmark's
	// local-pref and export-deny deltas land on one, and move no best route.
	var router, ibgp string
	for _, r := range net.Routers {
		rc, ok := spec.Configs[r.Name]
		if !ok {
			continue
		}
		for _, nb := range rc.Neighbors {
			if nb.RemoteAS == r.AS && ibgp == "" {
				ibgp = nb.Addr.String()
			}
		}
		router = r.Name
		break
	}
	if ibgp == "" {
		t.Fatal("the generated WAN's first BGP speaker has no iBGP session")
	}
	f := spec.Flows[1]
	l := net.Link(0)
	a, b := net.Router(l.A).Name, net.Router(l.B).Name
	flow := Delta{Op: "add-flow", Flow: "carry0", Ingress: net.Routers[0].Name, Src: "10.250.0.1", Dst: spec.Flows[0].Dst.String(), Gbps: 5}
	static := Delta{Op: "add-static", Router: net.Routers[1].Name, Prefix: netip.PrefixFrom(f.Dst, f.Dst.BitLen()).String(), Discard: true}
	deny := Delta{Op: "add-export-deny", Router: router, Neighbor: ibgp, Prefix: gen.Prefixes(spec)[0].String()}
	pref := func(nb string, lp uint32) []Delta {
		return []Delta{{Op: "set-local-pref", Router: router, Neighbor: nb, LocalPref: lp}}
	}
	as := func(d Delta, op string) Delta {
		d.Op = op
		return d
	}
	return []deltaKind{
		{op: "add-flow", do: []Delta{flow}, undo: []Delta{as(flow, "remove-flow")}},
		{op: "set-link-cost", do: []Delta{{Op: "set-link-cost", A: a, B: b, Cost: l.CostAB + 10}}, undo: []Delta{{Op: "set-link-cost", A: a, B: b, Cost: l.CostAB}}},
		{op: "add-static", do: []Delta{static}, undo: []Delta{as(static, "remove-static")}},
		{op: "set-local-pref", do: pref(ibgp, 150), undo: pref(ibgp, 0)},
		{op: "add-export-deny", do: []Delta{deny}, undo: []Delta{as(deny, "remove-export-deny")}},
		{op: "remove-flow", setup: []Delta{flow}, do: []Delta{as(flow, "remove-flow")}, undo: []Delta{flow}},
		{op: "remove-static", setup: []Delta{static}, do: []Delta{as(static, "remove-static")}, undo: []Delta{static}},
		{op: "remove-export-deny", setup: []Delta{deny}, do: []Delta{as(deny, "remove-export-deny")}, undo: []Delta{deny}},
	}
}

// routeMovingPref is a local-pref delta on the first BGP speaker's eBGP
// session: unlike the iBGP one of deltaKinds, it moves best routes.
func routeMovingPref(t testing.TB, spec *config.Spec) deltaKind {
	t.Helper()
	for _, r := range spec.Net.Routers {
		rc, ok := spec.Configs[r.Name]
		if !ok {
			continue
		}
		for _, nb := range rc.Neighbors {
			if nb.RemoteAS != r.AS {
				d := Delta{Op: "set-local-pref", Router: r.Name, Neighbor: nb.Addr.String(), LocalPref: 150}
				undo := d
				undo.LocalPref = 0
				return deltaKind{op: "set-local-pref (eBGP)", do: []Delta{d}, undo: []Delta{undo}}
			}
		}
		break
	}
	t.Fatal("the generated WAN's first BGP speaker has no eBGP session")
	return deltaKind{}
}

// daemonSized is the benchmark's daemon input: gen.WAN{60, 120, 36, SR 0.1,
// seed 10} with 3000 flows, at k = 1 over links, every link checked for
// overload.
func daemonSized(t testing.TB) (*config.Spec, string, Config) {
	spec, text := WANText(t, 60, 120, 36, 3000, 10)
	return spec, text, Config{K: 1, Mode: topo.FailLinks, ModeSet: true, OverloadFactor: 1}
}

// classRecord is a carrier that never hits and records what a cold build
// executed: the keys core handed it, in class order, and the sealed list of
// every STF — STF i the class of keys[i].
type classRecord struct {
	keys []cacheKey
	stfs *core.SealedSTFs
}

func (c *classRecord) CarriedSTF(cacheKey) (*core.SealedSTFs, int, bool) { return nil, 0, false }

func (c *classRecord) CarrySTFs(_, keys []cacheKey, l *core.SealedSTFs) { c.keys, c.stfs = keys, l }

func (c *classRecord) CarriedCheck(cacheKey) (core.PlanResult, bool) { return core.PlanResult{}, false }

func (c *classRecord) CarryChecks(map[cacheKey]core.PlanResult, int, int) {}

func (c *classRecord) CarriedLoad(cacheKey) (*core.SealedLoads, int, bool) { return nil, 0, false }

func (c *classRecord) CarryLoads(_, _ []cacheKey, _ *core.SealedLoads) {}

// linkInput is one class on a link, as a check sees it.
type linkInput struct {
	key  cacheKey
	gbps float64
}

// recordClasses executes every class of text under cfg's failure model on a
// fresh engine and returns its classes and, per directed link, the (key,
// summed volume) of each class on it in class order.
func recordClasses(t *testing.T, text string, cfg Config) (*classRecord, map[topo.DirLinkID][]linkInput) {
	t.Helper()
	spec, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatal(err)
	}
	k, mode := spec.K, spec.Mode
	if cfg.K > 0 {
		k = cfg.K
	}
	if cfg.ModeSet {
		mode = cfg.Mode
	}
	rs, err := routesim.Run(routesim.NewFailVars(mtbdd.New(), spec.Net, mode, k), spec.Configs)
	if err != nil {
		t.Fatal(err)
	}
	rec := &classRecord{}
	v := core.NewVerifier(core.NewEngine(rs, core.Options{STFCache: rec}), spec.Flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	classes := v.FlowSTFs()
	if rec.stfs == nil || len(rec.stfs.STFs) != len(classes) || len(rec.keys) != len(classes) {
		t.Fatalf("%d of %d classes keyed, not all executed", len(rec.keys), len(classes))
	}
	lists := make(map[topo.DirLinkID][]linkInput)
	for i, s := range classes {
		for _, lf := range s.Links {
			lists[lf.Link] = append(lists[lf.Link], linkInput{rec.keys[i], s.Flow.Gbps})
		}
	}
	return rec, lists
}

// keyRecord is the daemon's carrier, recording the keys core hands its
// CarrySTFs.
type keyRecord struct {
	*runCache
	keys []cacheKey
}

func (c *keyRecord) CarrySTFs(carried, keys []cacheKey, l *core.SealedSTFs) {
	c.keys = keys
	c.runCache.CarrySTFs(carried, keys, l)
}

// TestClassKeysIgnoreTheCarrier: core derives every class key, so a cold
// build of testdata/wan-1.yu hands the daemon's carrier and a test carrier
// that shares none of its code the same keys, in the same order.
func TestClassKeysIgnoreTheCarrier(t *testing.T) {
	n, err := yu.LoadFile(filepath.Join("..", "..", "testdata", "wan-1.yu"))
	if err != nil {
		t.Fatal(err)
	}
	daemon := &keyRecord{runCache: &runCache{srv: NewServer(Config{})}}
	rec := &classRecord{}
	for _, c := range []core.STFCache{daemon, rec} {
		if _, err := n.Build(yu.VerifyOptions{K: 1, STFCache: c}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.keys) < 2 || !slices.Equal(daemon.keys, rec.keys) {
		t.Fatalf("the daemon's carrier was handed %d keys, the test carrier %d; equal in order: %v",
			len(daemon.keys), len(rec.keys), slices.Equal(daemon.keys, rec.keys))
	}
}

// TestChecksCarriedByInputs: on the daemon-sized input, a delta's build
// re-runs exactly the checks of the links whose ordered (class key, volume)
// list changed, as a cold build of each version computes them, and carries
// the rest; a local-pref delta on an iBGP session and an export-deny delta
// carry every one. Its replays are each stored list once: at most 1.2× the
// distinct nodes of the classes it found stored — and, after a delta that
// moved the best routes of a third of the classes, never more than the
// per-class layout replayed.
func TestChecksCarriedByInputs(t *testing.T) {
	spec, text, cfg := daemonSized(t)
	s := NewServer(cfg)
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	counters := func() (carried, run, replayed int64) {
		c := s.reg.Snapshot().Counters
		return c["serve.checks_carried"], c["serve.checks_run"], c["serve.replayed_entries"]
	}
	if res, err := s.Report(); err != nil || res.Err != nil {
		t.Fatalf("first load: %v %v", err, res.Err)
	}
	cur, _ := s.SpecText()
	_, prev := recordClasses(t, cur, cfg)

	kinds := append(deltaKinds(t, spec), routeMovingPref(t, spec))
	for ki, k := range kinds {
		for step, ds := range [][]Delta{k.setup, k.do, k.undo} {
			if ds == nil {
				continue
			}
			what := k.op + [...]string{" (setup)", "", " (undo)"}[step]
			// What the build finds stored, and what each stored entry would
			// replay on its own.
			stored := make(map[cacheKey]int)
			s.store.mu.Lock()
			for _, gen := range []map[cacheKey]warmEntry{s.store.cur, s.store.prev} {
				for key, e := range gen {
					stored[key] = e.size
				}
			}
			s.store.mu.Unlock()
			c0, r0, p0 := counters()
			if _, err := s.ApplyDeltas(ds); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			res, err := s.Report()
			if err != nil || res.Err != nil {
				t.Fatalf("%s: %v %v", what, err, res.Err)
			}
			c1, r1, p1 := counters()
			text, _ := s.SpecText()
			rec, lists := recordClasses(t, text, cfg)

			wantRun := 0
			for _, st := range res.Report.LinkStats {
				if st.Kind != "" {
					t.Fatalf("%s: a %s check on an input with link checks only", what, st.Kind)
				}
				if !slices.Equal(lists[st.Link], prev[st.Link]) {
					wantRun++
				}
			}
			plans := int64(len(res.Report.LinkStats))
			if r1-r0 != int64(wantRun) || c1-c0+r1-r0 != plans {
				t.Errorf("%s: %d checks run and %d carried; want %d run of %d", what, r1-r0, c1-c0, wantRun, plans)
			}
			if step == 1 && ki < len(kinds)-1 && (k.op == "set-local-pref" || k.op == "add-export-deny" || k.op == "remove-export-deny") && c1-c0 != plans {
				t.Errorf("%s: %d of %d checks carried, want all", what, c1-c0, plans)
			}

			var hit []int
			perClass := 0
			for i, key := range rec.keys {
				if size, ok := stored[key]; ok {
					hit = append(hit, i)
					perClass += size
				}
			}
			hits := len(hit)
			if int64(hits) != res.Stats.CacheHits {
				t.Fatalf("%s: %d classes were stored before the build, it hit %d", what, hits, res.Stats.CacheHits)
			}
			replayed, need := p1-p0, rec.stfs.Sub(hit).Len()
			switch {
			case ki < len(kinds)-1 && float64(replayed) > 1.2*float64(need):
				t.Errorf("%s: replayed %d entries for %d distinct nodes", what, replayed, need)
			case replayed > int64(perClass):
				t.Errorf("%s: replayed %d entries, the per-class layout %d", what, replayed, perClass)
			}
			t.Logf("%s: %d of %d checks run; %d entries replayed for %d distinct nodes of %d stored classes (%d one by one)",
				what, r1-r0, plans, replayed, need, hits, perClass)
			prev = lists
		}
	}
}

// TestUndoneLinkCostHitsEveryClass: at the default CacheLimit, a link-cost
// delta's build stores a class for every class of the first build — its
// topology key moved them all — and the undo's build finds every class of the
// first build still stored and executes none. Promoting each hit at once
// rotated the store inside the undo's build, dropping classes it had yet to
// look up: it re-executed 865 of 1 654.
func TestUndoneLinkCostHitsEveryClass(t *testing.T) {
	spec, text, cfg := daemonSized(t)
	s := NewServer(cfg)
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	first, err := s.Report()
	if err != nil || first.Err != nil {
		t.Fatalf("first load: %v %v", err, first.Err)
	}
	classes := first.Stats.CacheMisses
	for _, k := range deltaKinds(t, spec) {
		if k.op != "set-link-cost" {
			continue
		}
		for step, ds := range [][]Delta{k.do, k.undo} {
			if _, err := s.ApplyDeltas(ds); err != nil {
				t.Fatal(err)
			}
			res, err := s.Report()
			if err != nil || res.Err != nil {
				t.Fatalf("step %d: %v %v", step, err, res.Err)
			}
			if step == 0 && res.Stats.CacheMisses != classes {
				t.Fatalf("the link-cost delta executed %d of %d classes, want all", res.Stats.CacheMisses, classes)
			}
			if step == 1 && (res.Stats.CacheHits != classes || res.Stats.CacheMisses != 0) {
				t.Errorf("the undo hit %d and executed %d of %d classes, want all hit", res.Stats.CacheHits, res.Stats.CacheMisses, classes)
			}
		}
	}
	t.Logf("%d classes", classes)
}

// BenchmarkDeltaKinds times one delta of each op, applied and verified, on
// the daemon-sized input — the benchmark's write path without its matrix —
// and reports per op the checks the build carried and the snapshot entries it
// replayed. Each iteration's undo runs untimed.
func BenchmarkDeltaKinds(b *testing.B) {
	spec, text, cfg := daemonSized(b)
	for _, k := range deltaKinds(b, spec) {
		b.Run(k.op, func(b *testing.B) {
			s := NewServer(cfg)
			apply := func(ds []Delta) {
				if _, err := s.ApplyDeltas(ds); err != nil {
					b.Fatal(err)
				}
				if res, err := s.Report(); err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
			}
			if _, err := s.LoadSpecText(text); err != nil {
				b.Fatal(err)
			}
			if res, err := s.Report(); err != nil || res.Err != nil {
				b.Fatal(err, res.Err)
			}
			if k.setup != nil {
				apply(k.setup)
			}
			counters := func() (carried, replayed int64) {
				c := s.reg.Snapshot().Counters
				return c["serve.checks_carried"], c["serve.replayed_entries"]
			}
			var carried, replayed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c0, p0 := counters()
				apply(k.do)
				c1, p1 := counters()
				carried, replayed = carried+c1-c0, replayed+p1-p0
				b.StopTimer()
				apply(k.undo)
				b.StartTimer()
			}
			b.ReportMetric(float64(carried)/float64(b.N), "carried/op")
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
		})
	}
}

// TestCanceledWarmReplayIsGoverned: a build whose VerifyTimeout fires while
// it asks for a stored class — the replay of a list far longer than the
// manager's interrupt stride to come — ends in a governed, incomplete report
// and no contained panic, and the next build finds every class still stored.
func TestCanceledWarmReplayIsGoverned(t *testing.T) {
	spec, text, cfg := daemonSized(t)
	s := NewServer(cfg)
	if _, err := s.LoadSpecText(text); err != nil {
		t.Fatal(err)
	}
	first, err := s.Report()
	if err != nil || first.Err != nil {
		t.Fatalf("first load: %v %v", err, first.Err)
	}
	longest := 0
	for _, gen := range []map[cacheKey]warmEntry{s.store.cur, s.store.prev} {
		for _, e := range gen {
			longest = max(longest, e.l.Len())
		}
	}
	if longest <= 1<<12 {
		t.Fatalf("the longest stored list has %d entries, no more than the interrupt stride", longest)
	}

	// An iBGP local-pref delta moves no class: its build asks for stored
	// classes only, and the first time it does, its budget runs out.
	k := deltaKinds(t, spec)[3]
	const budget = 2 * time.Second
	s.cfg.VerifyTimeout = budget
	asked := 0
	carriedHook = func(*runCache) {
		if asked++; asked == 1 {
			time.Sleep(budget)
		}
	}
	defer func() { carriedHook = nil }()
	if _, err := s.ApplyDeltas(k.do); err != nil {
		t.Fatal(err)
	}
	res, err := s.Report()
	carriedHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if asked != 1 {
		t.Fatalf("the build asked for %d stored classes before its budget ran out, want 1", asked)
	}
	if !errors.Is(res.Err, yu.ErrDeadline) || res.Report == nil || !res.Report.Incomplete {
		t.Fatalf("the timed-out build: Err %v, report %v; want ErrDeadline and an incomplete report", res.Err, res.Report != nil)
	}
	if p := s.reg.Snapshot().Counters["serve.panics"]; p != 0 {
		t.Fatalf("serve.panics = %d, want 0", p)
	}

	s.cfg.VerifyTimeout = 0
	if _, err := s.ApplyDeltas(k.undo); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Report(); err != nil || res.Err != nil || res.Stats.CacheMisses != 0 || res.Stats.CacheHits != first.Stats.CacheMisses {
		t.Fatalf("the build after: %v %v, %d hits and %d misses; want all %d classes carried", err, res.Err, res.Stats.CacheHits, res.Stats.CacheMisses, first.Stats.CacheMisses)
	}
}
