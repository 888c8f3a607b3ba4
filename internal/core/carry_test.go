package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/yu-verify/yu/internal/govern"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// carryingCache is a carrier that carries check results and nothing else.
type carryingCache struct {
	NoCarrier
	results      map[routesim.Fingerprint]PlanResult
	carried, run int
}

func (c *carryingCache) CarriedCheck(key routesim.Fingerprint) (PlanResult, bool) {
	r, ok := c.results[key]
	return r, ok
}

func (c *carryingCache) CarryChecks(results map[routesim.Fingerprint]PlanResult, carried, run int) {
	c.results, c.carried, c.run = results, carried, run
}

// TestCheckCarriedEqualsRun: a second verifier of the same flows takes every
// link and delivered result from the first — each equal, but for its zero
// Elapsed, to a run with no carrier — re-runs the aggregate plan, which is
// not keyed, and re-runs exactly the link plans whose classes' volumes a
// changed flow moved.
func TestCheckCarriedEqualsRun(t *testing.T) {
	spec, flows := wanWorkload(t)
	net := spec.Net
	pfx, err := flows[0].Dst.Prefix(24)
	if err != nil {
		t.Fatal(err)
	}
	plans := lower(net, []topo.LoadBound{{Link: 0, Max: 1}, {Link: 3, Min: 5, Max: 1e9}},
		[]topo.DeliveredBound{{Prefix: pfx, Min: 1e9, Max: 2e9}}, 0.5)
	plans = append(plans, Plan{Subject: Subject{Links: []topo.DirLinkID{0, 1}}, Checks: []LinkCheck{{Max: 1, CondVar: -1}}})
	check := func(cache STFCache, flows []topo.Flow) []PlanResult {
		t.Helper()
		out, err := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{STFCache: cache}), flows).Check(plans)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			out[i].Stat.Elapsed = 0
		}
		return out
	}
	want := check(nil, flows)
	c := &carryingCache{}
	if got := check(c, flows); !reflect.DeepEqual(got, want) || c.carried != 0 || c.run != len(plans) {
		t.Fatalf("first run: %d carried, %d run of %d plans; results equal a plain run: %v", c.carried, c.run, len(plans), reflect.DeepEqual(got, want))
	}
	if got := check(c, flows); !reflect.DeepEqual(got, want) || c.carried != len(plans)-1 || c.run != 1 {
		t.Fatalf("second run: %d carried, %d run of %d plans; results equal a plain run: %v", c.carried, c.run, len(plans), reflect.DeepEqual(got, want))
	}

	// More volume on one flow moves the links its class crosses, and no other.
	v := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	moved := make(map[topo.DirLinkID]bool)
	for _, lf := range v.stfs[v.classOf[0]].Links {
		moved[lf.Link] = true
	}
	heavier := append([]topo.Flow(nil), flows...)
	heavier[0].Gbps += 1
	want = check(nil, heavier)
	rerun := 1 // the aggregate
	for _, p := range plans {
		if p.Subject.Prefix.IsValid() {
			rerun++ // flows[0] is inside
		} else if len(p.Subject.Links) == 0 && moved[p.Subject.Link] {
			rerun++
		}
	}
	if got := check(c, heavier); !reflect.DeepEqual(got, want) || c.run != rerun || c.carried != len(plans)-rerun {
		t.Fatalf("after a volume change: %d carried, %d run, want %d run; results equal a plain run: %v", c.carried, c.run, rerun, reflect.DeepEqual(got, want))
	}
	if rerun == 1 || rerun == len(plans) {
		t.Fatalf("the volume change moved %d of %d plans: the case covers less than it claims", rerun, len(plans))
	}
}

// replayCarrier serves what its servingCache was primed with and, the first
// time it is asked for a class, cancels the run: at once, or — late — so
// that the ladder's poll before the replay still passes and the manager's
// interrupt inside the replay is the first to see it.
type replayCarrier struct {
	servingCache
	ctx   *pollCtx
	late  bool
	asked int
}

func (c *replayCarrier) CarriedSTF(key routesim.Fingerprint) (*SealedSTFs, int, bool) {
	if c.asked++; c.asked == 1 {
		c.ctx.cancelAt = c.ctx.polls + 1
		if c.late {
			c.ctx.cancelAt++
		}
	}
	return c.servingCache.CarriedSTF(key)
}

// pollCtx is a context canceled from its cancelAt-th poll of Err on (never,
// while cancelAt is 0).
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCanceledWarmReplayGoverned: a run canceled while it reads a carried
// class — off a stored list of benchShapes[2]'s classes, longer than the
// manager's interrupt stride, replayed into a fresh manager — stops assembly
// with the typed error and no panic, whether the cancellation lands before
// the replay or inside it, and the carrier hears of nothing carried.
func TestCanceledWarmReplayGoverned(t *testing.T) {
	sh := benchShapes[2]
	spec, cold := sh.verifier(t, Options{})
	stored := servingCache{at: make(map[routesim.Fingerprint]sealedAt)}
	stored.serve(cold.e, cold.stfs)
	if n := stored.at[ClassKeys(cold.e, flowsOf(cold.stfs[:1]))[0]].l.Len(); n <= 1<<12 {
		t.Fatalf("the stored list has %d entries, no more than the interrupt stride", n)
	}
	for _, late := range []bool{false, true} {
		ctx := &pollCtx{Context: context.Background()}
		c := &replayCarrier{servingCache: stored, ctx: ctx, late: late}
		e := buildEngine(t, spec, topo.FailLinks, sh.k, Options{Ctx: ctx, STFCache: c})
		var v *Verifier
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("late %v: NewVerifier panicked: %v", late, r)
				}
			}()
			v = NewVerifier(e, spec.Flows)
		}()
		if err := v.Err(); !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("late %v: Err() = %v, want ErrCanceled", late, err)
		}
		if c.asked != 1 || c.hits != 0 || c.built != 0 || len(v.stfs) != 0 || len(e.pinned) != 0 {
			t.Fatalf("late %v: asked %d times, %d carried and %d executed, %d classes assembled, %d nodes left pinned; want 1, 0, 0, 0, 0",
				late, c.asked, c.hits, c.built, len(v.stfs), len(e.pinned))
		}
		if late && ctx.polls < ctx.cancelAt {
			t.Fatalf("late %v: the replay never polled the interrupt (%d polls, canceled from %d)", late, ctx.polls, ctx.cancelAt)
		}
	}
}

// TestStaleEntryIsExecuted: a stored entry that does not fit the engine — a
// link beyond its network's, or a list sealed over a larger network, whose
// variables it does not have — is executed, never replayed; the classes
// whose entries fit are carried, and the STFs are the ones executing every
// class builds.
func TestStaleEntryIsExecuted(t *testing.T) {
	spec, flows := wanWorkload(t)
	cold := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	c := &servingCache{at: make(map[routesim.Fingerprint]sealedAt)}
	c.serve(cold.e, cold.stfs)

	bad := *cold.stfs[0]
	bad.Links = append(slices.Clone(bad.Links), LinkFrac{Link: topo.DirLinkID(2 * spec.Net.NumLinks()), W: bad.Delivered})
	keys := ClassKeys(cold.e, flowsOf(cold.stfs[:2]))
	c.at[keys[0]] = sealedAt{SealSTFs(cold.e.m, []*FlowSTF{&bad}), 0}
	bigSpec := benchShapes[1].spec(t)
	big := NewVerifier(buildEngine(t, bigSpec, topo.FailLinks, 1, Options{}), bigSpec.Flows[:50])
	wide := SealSTFs(big.e.m, big.stfs)
	if int(wide.Snap.MaxLevel()) < cold.e.m.NumVars() {
		t.Fatalf("the larger network's list reaches level %d, inside this one's %d variables", wide.Snap.MaxLevel(), cold.e.m.NumVars())
	}
	c.at[keys[1]] = sealedAt{wide, 0}

	e := buildEngine(t, spec, topo.FailLinks, 1, Options{STFCache: c})
	v := NewVerifier(e, flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	if c.built != 2 || c.hits != len(v.stfs)-2 {
		t.Fatalf("%d carried and %d executed of %d classes; want the two stale ones executed", c.hits, c.built, len(v.stfs))
	}
	plain := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	for i, s := range unseal(SealSTFs(plain.e.m, plain.stfs), e.m, flowsOf(plain.stfs)) {
		if err := sameSTF(s, v.stfs[i]); err != nil {
			t.Fatalf("class %d: %v", i, err)
		}
	}
}

// TestCarriedTablesSurviveCollections: a build that carries every other
// class off one stored list and executes the rest, collecting after every
// execution, reads each carried class off the one replay of its list (the
// session pins it) and ends with the STFs of a plain run.
func TestCarriedTablesSurviveCollections(t *testing.T) {
	spec, flows := wanWorkload(t)
	cold := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	var half []*FlowSTF
	for i, s := range cold.stfs {
		if i%2 == 1 {
			half = append(half, s)
		}
	}
	c := &servingCache{at: make(map[routesim.Fingerprint]sealedAt)}
	c.serve(cold.e, half)
	e := buildEngine(t, spec, topo.FailLinks, 1, Options{STFCache: c})
	// A threshold of one node before every execution makes the build
	// collect after each one.
	testExecHook = func(topo.Flow) { e.gcThreshold = 1 }
	defer func() { testExecHook = nil }()
	v := NewVerifier(e, flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	if c.hits != len(half) || e.m.GCRuns() < uint64(c.built) {
		t.Fatalf("%d of %d classes carried, %d collections for %d executions", c.hits, len(half), e.m.GCRuns(), c.built)
	}
	plain := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	for i, s := range unseal(SealSTFs(plain.e.m, plain.stfs), e.m, flowsOf(plain.stfs)) {
		if err := sameSTF(s, v.stfs[i]); err != nil {
			t.Fatalf("class %d: %v", i, err)
		}
	}
}

// TestCollectionsBoundedUnderBudget: under a node budget a collection moves
// the threshold halfway between its survivors and the budget. A build whose
// live nodes pass half its budget collects when half the headroom left is
// used, not after every execution, and builds the STFs of a plain run.
func TestCollectionsBoundedUnderBudget(t *testing.T) {
	spec, flows := wanWorkload(t)
	plain := NewVerifier(buildEngine(t, spec, topo.FailLinks, 1, Options{}), flows)
	e := buildEngine(t, spec, topo.FailLinks, 1, Options{NodeBudget: plain.e.m.Stats().Live})
	executions := 0
	testExecHook = func(topo.Flow) { executions++ }
	defer func() { testExecHook = nil }()
	v := NewVerifier(e, flows)
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	if runs := e.m.GCRuns(); runs == 0 || runs > uint64(executions)/8 {
		t.Fatalf("%d collections for %d executions under a budget of %d nodes, want 1 to %d",
			runs, executions, e.opts.NodeBudget, executions/8)
	}
	for i, s := range unseal(SealSTFs(plain.e.m, plain.stfs), e.m, flowsOf(plain.stfs)) {
		if err := sameSTF(s, v.stfs[i]); err != nil {
			t.Fatalf("class %d: %v", i, err)
		}
	}
}
