// White-box tests of what a warm build carries from the build before it:
// the results of the checks whose inputs did not move, and the stored
// classes, replayed once per list.
package serve

import (
	"net/netip"
	"slices"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/gen"
	"github.com/yu-verify/yu/internal/mtbdd"
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

// classRecord is what a cold build of a version executes, class by class:
// each class's key and summed volume, the links its STF crosses and the
// roots of its STF.
type classRecord struct {
	rc    *runCache
	keys  []cacheKey
	gbps  []float64
	links [][]topo.DirLinkID
	roots [][]*mtbdd.Node
}

func (c *classRecord) Lookup(e *core.Engine, rep topo.Flow) (*core.FlowSTF, bool) {
	c.keys = append(c.keys, c.rc.classKey(e, rep))
	c.gbps = append(c.gbps, rep.Gbps)
	return nil, false
}

func (c *classRecord) Store(e *core.Engine, rep topo.Flow, stf *core.FlowSTF) {
	var links []topo.DirLinkID
	roots := []*mtbdd.Node{stf.Delivered, stf.Dropped, stf.InFlight}
	for l, w := range stf.Links {
		links = append(links, l)
		roots = append(roots, w)
	}
	c.links = append(c.links, links)
	c.roots = append(c.roots, roots)
}

// linkInput is one class on a link, as a check sees it.
type linkInput struct {
	key  cacheKey
	gbps float64
}

// recordClasses builds text cold under cfg, every class executed, and
// returns its classes and, per directed link, the (key, volume) of each
// class on it in class order.
func recordClasses(t *testing.T, text string, cfg Config) (*classRecord, map[topo.DirLinkID][]linkInput) {
	t.Helper()
	spec, err := config.ParseSpecString(text)
	if err != nil {
		t.Fatal(err)
	}
	rec := &classRecord{rc: newRunCache(NewServer(Config{}))}
	if _, err := yu.FromSpec(spec).Build(yu.VerifyOptions{K: cfg.K, Mode: cfg.Mode, ModeSet: cfg.ModeSet, OverloadFactor: cfg.OverloadFactor, STFCache: rec}); err != nil {
		t.Fatal(err)
	}
	if len(rec.links) != len(rec.keys) {
		t.Fatalf("%d classes looked up, %d executed", len(rec.keys), len(rec.links))
	}
	lists := make(map[topo.DirLinkID][]linkInput)
	for i, links := range rec.links {
		for _, l := range links {
			lists[l] = append(lists[l], linkInput{rec.keys[i], rec.gbps[i]})
		}
	}
	return rec, lists
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
	// Room for every build's classes: undoing a link-cost delta finds the
	// first build's classes stored, however many the delta added.
	cfg.CacheLimit = 1 << 14
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

			var roots []*mtbdd.Node
			hits, perClass := 0, 0
			for i, key := range rec.keys {
				if size, ok := stored[key]; ok {
					roots = append(roots, rec.roots[i]...)
					hits++
					perClass += size
				}
			}
			if int64(hits) != res.Stats.CacheHits {
				t.Fatalf("%s: %d classes were stored before the build, it hit %d", what, hits, res.Stats.CacheHits)
			}
			snap, _ := mtbdd.NewSnapshot(roots)
			replayed, need := p1-p0, snap.Len()
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
