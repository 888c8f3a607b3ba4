// Warm STF cache: content-hash keys, the core.STFCache adapter consulted
// by the verifier, and the version-independent store that survives reloads
// (and, via persist.go, restarts).
package serve

import (
	"cmp"
	"net/netip"
	"slices"
	"sync"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// cacheKey is the 128-bit content fingerprint of one equivalence class's
// complete execution input surface (runCache.classKey).
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

// get is k's entry, left where it is (keep).
func (st *store[L]) get(k cacheKey) (entry[L], bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.cur[k]; ok {
		return e, true
	}
	e, ok := st.prev[k]
	return e, ok
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
// classes each build executed sealed together (runCache.seal). It outlives
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

// runCache adapts the shared store to core.STFCache and core.CheckCarrier
// (and the store of loads to core.LoadCarrier, Loads) for one verification
// run, and the server's carried IS-IS and BGP results
// to routesim.Carrier. It memoizes the run-global fingerprint (topology,
// failure model, SR), each matched prefix's fingerprint and the guard
// hasher, so a class key costs a handful of words and a run hashes each
// prefix's RIB rows once, however many classes match it.
type runCache struct {
	srv    *Server
	hasher *mtbdd.Hasher

	global      cacheKey
	globalReady bool
	prefixes    map[netip.Prefix]cacheKey

	// lastRep/lastKey carry the key Lookup derived for the class it was last
	// asked about to the Store that follows a miss and its execution, and to
	// ClassKey.
	lastRep topo.Flow
	lastKey cacheKey

	// stored are the classes this build executed, with their keys: seal
	// stores them as one list when the build ends.
	stored    []*core.FlowSTF
	storedKey []cacheKey

	// hit are the keys this build found stored: seal keeps them.
	hit []cacheKey

	// replays are the lists this build replayed, each once; replayGC is the
	// manager's collection count they were replayed at, a later collection
	// voids them.
	replays  map[*core.SealedSTFs]*core.Replayed
	replayGC uint64

	hits, misses int64
}

func newRunCache(s *Server) *runCache {
	return &runCache{srv: s, hasher: mtbdd.NewHasher(), prefixes: make(map[netip.Prefix]cacheKey)}
}

// globalFP fingerprints everything every class execution reads: the
// topology key — router and link identity (names pin indices), the failure
// model, and so the IS-IS state, which is a function of them — and the
// complete guarded SR state.
func (rc *runCache) globalFP(e *core.Engine) cacheKey {
	if !rc.globalReady {
		rc.global = routesim.Fingerprint(e.Vars().Key())
		rc.global.Add(e.RouteSim().HashSR(rc.hasher))
		rc.globalReady = true
	}
	return rc.global
}

// prefixFP fingerprints what forwarding pfx reads anywhere in the network
// (routesim.Result.HashPrefix). Classes share matched prefixes (some 1 740
// classes match 36 on the benchmark's daemon input), so it is computed
// once a run.
func (rc *runCache) prefixFP(e *core.Engine, pfx netip.Prefix) cacheKey {
	if fp, ok := rc.prefixes[pfx]; ok {
		return fp
	}
	fp := e.RouteSim().HashPrefix(pfx, rc.hasher)
	rc.prefixes[pfx] = fp
	rc.srv.reg.Counter("serve.prefix_fingerprints").Inc()
	return fp
}

// classKey fingerprints one class's execution inputs: the run-global
// state plus the class identity (ingress, DSCP, matched prefix list) and,
// through each matched prefix's fingerprint, every router's RIB candidates
// and statics for those prefixes.
func (rc *runCache) classKey(e *core.Engine, rep topo.Flow) cacheKey {
	k := rc.globalFP(e)
	k.Str(e.Net().Router(rep.Ingress).Name)
	k.U64(uint64(rep.DSCP))
	prefixes := e.ClassPrefixes(rep.Dst)
	k.U64(uint64(len(prefixes)))
	for _, pfx := range prefixes {
		k.Prefix(pfx)
		k.Add(rc.prefixFP(e, pfx))
	}
	return k
}

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

// Lookup implements core.STFCache: read the class STF off its list, replayed
// into e's manager. Defensive shape checks keep a stale or corrupt persisted
// entry from being materialized.
func (rc *runCache) Lookup(e *core.Engine, rep topo.Flow) (*core.FlowSTF, bool) {
	key := rc.classKey(e, rep)
	rc.lastRep, rc.lastKey = rep, key
	ent, ok := rc.srv.store.get(key)
	reg := rc.srv.reg
	if !ok {
		rc.misses++
		reg.Counter("serve.class_cache_misses").Inc()
		if rc.srv.everRan.Load() {
			reg.Counter("serve.dirty_classes").Inc()
		}
		return nil, false
	}
	maxDir := 2 * e.Net().NumLinks()
	fits := int(ent.l.Snap.MaxLevel()) < e.Manager().NumVars()
	for _, l := range ent.l.STFs[ent.i].Links {
		fits = fits && int(l) >= 0 && int(l) < maxDir
	}
	if !fits {
		rc.misses++
		reg.Counter("serve.class_cache_misses").Inc()
		return nil, false
	}
	stf := rc.replay(e.Manager(), ent.l).STF(ent.i, rep)
	rc.hit = append(rc.hit, key)
	rc.hits++
	reg.Counter("serve.class_cache_hits").Inc()
	return stf, true
}

// replay is l replayed into m: the build's earlier replay of it, unless m has
// collected since.
func (rc *runCache) replay(m *mtbdd.Manager, l *core.SealedSTFs) *core.Replayed {
	if rc.replays == nil || rc.replayGC != m.GCRuns() {
		rc.replays, rc.replayGC = make(map[*core.SealedSTFs]*core.Replayed), m.GCRuns()
	}
	r, ok := rc.replays[l]
	if !ok {
		r = l.Replay(m)
		rc.replays[l] = r
		rc.srv.reg.Counter("serve.replayed_entries").Add(int64(l.Snap.Len()))
	}
	return r
}

// Store implements core.STFCache: keep a freshly executed class STF, under
// the key the Lookup that missed on it derived, for seal.
func (rc *runCache) Store(e *core.Engine, rep topo.Flow, stf *core.FlowSTF) {
	rc.stored = append(rc.stored, stf)
	rc.storedKey = append(rc.storedKey, rc.ClassKey(e, rep))
}

// seal ends the build's use of the store: the classes it found stored are
// kept, the classes it executed go in as one sealed list, and its replays are
// dropped. The list holds no node, so it never keeps this run's manager
// alive. Call it once the build is done and before anything can collect its
// manager — its verifier roots every stored STF until then.
func (rc *runCache) seal() {
	rc.srv.store.keep(rc.hit)
	if len(rc.stored) > 0 {
		rc.srv.store.putList(rc.storedKey, core.SealSTFs(rc.stored))
	}
	rc.hit, rc.stored, rc.storedKey, rc.replays = nil, nil, nil, nil
}

// ClassKey implements core.CheckCarrier: the key Lookup derived for rep.
func (rc *runCache) ClassKey(e *core.Engine, rep topo.Flow) routesim.Fingerprint {
	if rep == rc.lastRep {
		return rc.lastKey
	}
	return rc.classKey(e, rep)
}

// CarriedCheck implements core.CheckCarrier: the result the latest complete
// build recorded under key.
func (rc *runCache) CarriedCheck(key routesim.Fingerprint) (core.PlanResult, bool) {
	s := rc.srv
	s.carryMu.Lock()
	defer s.carryMu.Unlock()
	r, ok := s.checks[key]
	return r, ok
}

// CarryChecks implements core.CheckCarrier: a complete build's results
// replace the server's carried ones.
func (rc *runCache) CarryChecks(results map[routesim.Fingerprint]core.PlanResult, carried, run int) {
	s := rc.srv
	s.carryMu.Lock()
	s.checks = results
	s.carryMu.Unlock()
	s.reg.Counter("serve.checks_carried").Add(int64(carried))
	s.reg.Counter("serve.checks_run").Add(int64(run))
}

// Loads implements core.CheckCarrier: the server's store of loads.
func (rc *runCache) Loads() core.LoadCarrier { return loadCarrier{rc.srv} }

// loadCarrier adapts the server's store of loads to core.LoadCarrier. It is
// what a version's kept verifier holds of the daemon once trimmed: the
// server, and no guard hasher, prefix memo or route state of the build.
type loadCarrier struct{ s *Server }

// CarriedLoad implements core.LoadCarrier.
func (c loadCarrier) CarriedLoad(key routesim.Fingerprint) (*core.SealedLoads, int, bool) {
	e, ok := c.s.loads.get(key)
	return e.l, e.i, ok
}

// CarryLoads implements core.LoadCarrier: the loads a check carried are kept,
// and the list of those it built goes in.
func (c loadCarrier) CarryLoads(carried, keys []routesim.Fingerprint, l *core.SealedLoads) {
	c.s.loads.keep(carried)
	if l != nil {
		c.s.loads.putList(keys, l)
	}
	c.s.reg.Counter("serve.loads_carried").Add(int64(len(carried)))
	c.s.reg.Counter("serve.loads_built").Add(int64(len(keys)))
}

var (
	_ core.CheckCarrier = (*runCache)(nil)
	_ routesim.Carrier  = (*runCache)(nil)
)
