// Warm state: content-hash keys, the build's carrier (core.STFCache) and the
// version-independent stores it keeps — of classes, which survives reloads
// (and, via persist.go, restarts), of check results and of loads.
package serve

import (
	"cmp"
	"slices"
	"sync"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
)

// cacheKey is the 128-bit content fingerprint of what a stored entry was
// built from: a class's execution inputs, or a load's classes (core derives
// both).
type cacheKey = routesim.Fingerprint

// sealedList is what a store keeps entries of: a sealed list of STFs
// (core.SealedSTFs) or of loads (core.SealedLoads) — its snapshot length,
// each entry's own snapshot length, and the list of some of its entries.
type sealedList[L any] interface {
	comparable
	Len() int
	Sizes() []int
	Sub(idx []int) L
}

// store keeps sealed entries by content key across versions: content-hash
// keys make stale entries unreachable rather than wrong.
//
// What one build (or query) adds is sealed together as one list, and each of
// its entries names its place in that list: a later build replays each list
// it hits once, and nodes the entries share are stored once. A list is never
// larger than the snapshots its entries would hold one by one (held): when
// dropped entries would make it so, its survivors are sealed again on their
// own (settle).
//
// Entries live in two generations, the current one of at most half the
// limit. A stored entry goes to the current generation; when it is full it
// becomes the previous one, and the generation before is dropped (counted in
// evictions, when the store has a counter). A hit leaves its entry where it is until its build ends, when
// keep moves the build's hits on the previous generation to the current one:
// no rotation inside a build drops what the build still reads, and a build
// whose entries fit in half the limit leaves every one of them readable.
type store[L sealedList[L]] struct {
	mu        sync.Mutex
	cur, prev map[cacheKey]entry[L]
	// half bounds the current generation, limit-half the previous one.
	half, limit int
	evictions   *obs.Counter
	// held is, per list some entry names, the summed sizes of those entries:
	// what the per-entry layout would store for them. It is never below the
	// list's own length.
	held map[L]int
	// touched lists lost an entry since the last settle.
	touched []L
}

// entry is one stored entry: entry i of list l, whose roots reach size of l's
// snapshot entries — the length of the snapshot sealing it alone.
type entry[L any] struct {
	l    L
	i    int
	size int
}

// keyed is an entry with its key.
type keyed[L any] struct {
	k cacheKey
	e entry[L]
}

// init makes the store an empty one of at most limit entries.
func (st *store[L]) init(limit int, evictions *obs.Counter) {
	st.half, st.limit, st.evictions = max(1, limit/2), limit, evictions
	st.reset(nil)
}

// reset replaces the store's contents with entries, the first to fill the
// previous generation, the rest the current one; what fits in neither is
// left out.
func (st *store[L]) reset(entries []keyed[L]) {
	st.cur = make(map[cacheKey]entry[L])
	st.prev = make(map[cacheKey]entry[L])
	st.held = make(map[L]int)
	for _, e := range entries {
		_, inPrev := st.prev[e.k]
		_, inCur := st.cur[e.k]
		switch {
		case inPrev || inCur: // a repeated key keeps its first entry
			continue
		case len(st.prev) < st.limit-st.half:
			st.prev[e.k] = e.e
		case len(st.cur) < st.half:
			st.cur[e.k] = e.e
		default:
			continue
		}
		st.held[e.e.l] += e.e.size
	}
}

// carried is where k's entry is, entry i of list l, left in its generation
// until the stage that reads it ends (carry).
func (st *store[L]) carried(k cacheKey) (l L, i int, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.cur[k]
	if !ok {
		e, ok = st.prev[k]
	}
	return e.l, e.i, ok
}

// carry ends a stage's use of the store: the entries it carried are kept,
// and l — the zero L when the stage built nothing — goes in, entry i under
// keys[i]. It returns the snapshot entries of the distinct lists the carried
// entries name, what the stage replayed.
func (st *store[L]) carry(carried, keys []cacheKey, l L) (replayed int) {
	seen := make(map[L]bool)
	for _, k := range carried {
		if cl, _, ok := st.carried(k); ok && !seen[cl] {
			seen[cl] = true
			replayed += cl.Len()
		}
	}
	st.keep(carried)
	var none L
	if l != none {
		st.putList(keys, l)
	}
	return replayed
}

// keep moves the entries of keys that the previous generation holds to the
// current one: a build's hits, once it has read them all.
func (st *store[L]) keep(keys []cacheKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var moved []keyed[L]
	for _, k := range keys {
		if e, ok := st.prev[k]; ok {
			delete(st.prev, k)
			moved = append(moved, keyed[L]{k, e})
		}
	}
	for _, m := range moved {
		st.insert(m.k, m.e)
	}
	st.settle()
}

// putList stores entry i of l under keys[i], for every i.
func (st *store[L]) putList(keys []cacheKey, l L) {
	sizes := l.Sizes()
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, k := range keys {
		for _, gen := range []map[cacheKey]entry[L]{st.cur, st.prev} {
			if old, ok := gen[k]; ok {
				delete(gen, k)
				st.release(old)
			}
		}
		st.insert(k, entry[L]{l: l, i: i, size: sizes[i]})
		st.held[l] += sizes[i]
	}
	st.settle()
}

// insert places an entry whose key is in neither generation in the current
// one, rotating first if it is full. Callers hold mu and settle afterwards.
func (st *store[L]) insert(k cacheKey, e entry[L]) {
	if len(st.cur) >= st.half {
		dropped := st.prev
		st.prev, st.cur = st.cur, make(map[cacheKey]entry[L])
		if len(st.prev) > st.limit-st.half {
			for _, old := range st.prev {
				st.release(old)
			}
			st.prev = make(map[cacheKey]entry[L])
		}
		for _, old := range dropped {
			st.release(old)
		}
		st.evictions.Inc()
	}
	st.cur[k] = e
}

// release accounts for an entry leaving the store.
func (st *store[L]) release(e entry[L]) {
	st.held[e.l] -= e.size
	st.touched = append(st.touched, e.l)
}

// settle forgets the touched lists no entry names any more, and seals the
// survivors of each list its dropped entries have left larger than their
// own snapshots would be, on their own: a list of the survivors, in list
// order, holding only the entries they reach (Sub).
func (st *store[L]) settle() {
	type ref struct {
		gen map[cacheKey]entry[L]
		k   cacheKey
	}
	over := make(map[L][]ref)
	for _, l := range st.touched {
		switch h, ok := st.held[l]; {
		case !ok:
		case h == 0:
			delete(st.held, l)
		case h < l.Len():
			over[l] = nil
		}
	}
	st.touched = st.touched[:0]
	if len(over) == 0 {
		return
	}
	for _, gen := range []map[cacheKey]entry[L]{st.cur, st.prev} {
		for k, e := range gen {
			if refs, ok := over[e.l]; ok {
				over[e.l] = append(refs, ref{gen, k})
			}
		}
	}
	for l, refs := range over {
		slices.SortFunc(refs, func(x, y ref) int { return cmp.Compare(x.gen[x.k].i, y.gen[y.k].i) })
		idx := make([]int, len(refs))
		for j, r := range refs {
			idx[j] = r.gen[r.k].i
		}
		nl := l.Sub(idx)
		for j, r := range refs {
			r.gen[r.k] = entry[L]{l: nl, i: j, size: r.gen[r.k].size}
		}
		st.held[nl] = st.held[l]
		delete(st.held, l)
	}
}

func (st *store[L]) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.cur) + len(st.prev)
}

// stfStore is the shared warm cache: one class execution per entry, the
// classes each build executed sealed together (runCache.CarrySTFs). It outlives
// versions and reloads and, through persist.go, restarts.
type stfStore struct {
	store[*core.SealedSTFs]
}

// warmEntry is one stored class: STF i of list l.
type warmEntry = entry[*core.SealedSTFs]

func newSTFStore(limit int, evictions *obs.Counter) *stfStore {
	st := &stfStore{}
	st.init(limit, evictions)
	return st
}

// loadLimit bounds the server's store of loads (Server.loads): two
// generations of 512, each room for two queries that sum every directed
// link of the benchmark's daemon input.
const loadLimit = 1024

// runCache is one build's carrier (core.STFCache) over the server's stores of
// classes, check results and loads, and its carrier of IS-IS and BGP results
// (routesim.Carrier). It only stores: core derives every key, reads each
// stored list it hits into the build's manager and hands back, sealed, what
// the build executed and summed. The build's verifier keeps its carrier for
// the loads of the checks to come, so it holds the server and the build's
// counts and nothing else.
type runCache struct {
	srv          *Server
	hits, misses int64
}

// carriedHook is a test hook, never set by library code: when non-nil,
// CarriedSTF calls it first.
var carriedHook func(*runCache)

// CarriedIGP implements routesim.Carrier: the IS-IS result an earlier
// build sealed, when it was sealed under key — the same routers and links,
// failure mode and budget. Any other topology misses and computes its own.
func (rc *runCache) CarriedIGP(key routesim.TopoKey) *routesim.ImportBase {
	s := rc.srv
	s.carryMu.Lock()
	b := s.igp
	s.carryMu.Unlock()
	if b == nil || b.Key() != key {
		return nil
	}
	s.reg.Counter("serve.igp_carried").Inc()
	return b
}

// CarryIGP implements routesim.Carrier: the freshly computed result,
// sealed, replaces the server's carried one.
func (rc *runCache) CarryIGP(b *routesim.ImportBase) {
	s := rc.srv
	s.carryMu.Lock()
	s.igp = b
	s.carryMu.Unlock()
}

// CarriedBGP implements routesim.Carrier: the BGP result an earlier build
// sealed, when it was sealed under key — the same topology (and so IS-IS
// state) and session graph. The run replays the prefixes whose own inputs
// match.
func (rc *runCache) CarriedBGP(key routesim.BGPKey) *routesim.BGPBase {
	s := rc.srv
	s.carryMu.Lock()
	defer s.carryMu.Unlock()
	if s.bgp == nil || s.bgp.Key() != key {
		return nil
	}
	return s.bgp
}

// CarryBGP implements routesim.Carrier: it counts the build's replayed and
// recomputed prefixes, and a freshly sealed result replaces the server's
// carried one.
func (rc *runCache) CarryBGP(b *routesim.BGPBase, carried, recomputed int) {
	s := rc.srv
	if b != nil {
		s.carryMu.Lock()
		s.bgp = b
		s.carryMu.Unlock()
	}
	s.reg.Counter("serve.bgp_prefixes_carried").Add(int64(carried))
	s.reg.Counter("serve.bgp_prefixes_recomputed").Add(int64(recomputed))
}

// CarriedSTF implements core.STFCache: where the store holds the class
// STF key fingerprints.
func (rc *runCache) CarriedSTF(key cacheKey) (*core.SealedSTFs, int, bool) {
	if carriedHook != nil {
		carriedHook(rc)
	}
	return rc.srv.store.carried(key)
}

// CarrySTFs implements core.STFCache: the build's STF stage is over. The
// classes it carried are kept and those it executed go in as one list, which
// holds no node, so it never keeps the build's manager alive; its counts are
// the build's.
func (rc *runCache) CarrySTFs(carried, keys []cacheKey, l *core.SealedSTFs) {
	s := rc.srv
	rc.hits, rc.misses = int64(len(carried)), int64(len(keys))
	s.reg.Counter("serve.replayed_entries").Add(int64(s.store.carry(carried, keys, l)))
	s.reg.Counter("serve.class_cache_hits").Add(rc.hits)
	s.reg.Counter("serve.class_cache_misses").Add(rc.misses)
	if s.everRan.Load() {
		s.reg.Counter("serve.dirty_classes").Add(rc.misses)
	}
}

// CarriedCheck implements core.STFCache: the result the latest complete
// build recorded under key.
func (rc *runCache) CarriedCheck(key routesim.Fingerprint) (core.PlanResult, bool) {
	s := rc.srv
	s.carryMu.Lock()
	defer s.carryMu.Unlock()
	r, ok := s.checks[key]
	return r, ok
}

// CarryChecks implements core.STFCache: a complete build's results
// replace the server's carried ones.
func (rc *runCache) CarryChecks(results map[routesim.Fingerprint]core.PlanResult, carried, run int) {
	s := rc.srv
	s.carryMu.Lock()
	s.checks = results
	s.carryMu.Unlock()
	s.reg.Counter("serve.checks_carried").Add(int64(carried))
	s.reg.Counter("serve.checks_run").Add(int64(run))
}

// CarriedLoad implements core.STFCache: where the store of loads holds the
// load key fingerprints.
func (rc *runCache) CarriedLoad(key cacheKey) (*core.SealedLoads, int, bool) {
	return rc.srv.loads.carried(key)
}

// CarryLoads implements core.STFCache: the loads a check carried are kept,
// and the list of those it built goes in.
func (rc *runCache) CarryLoads(carried, keys []cacheKey, l *core.SealedLoads) {
	s := rc.srv
	s.loads.carry(carried, keys, l)
	s.reg.Counter("serve.loads_carried").Add(int64(len(carried)))
	s.reg.Counter("serve.loads_built").Add(int64(len(keys)))
}

var (
	_ core.STFCache    = (*runCache)(nil)
	_ routesim.Carrier = (*runCache)(nil)
)
