// Warm STF cache: content-hash keys, the core.STFCache adapter consulted
// by the verifier, and the version-independent store that survives reloads
// (and, via persist.go, restarts).
package serve

import (
	"net/netip"
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

// stfStore is the shared warm cache: one class execution per entry, sealed
// (a one-STF core.SealedSTFs). It outlives versions and reloads;
// content-hash keys make stale entries unreachable rather than wrong.
//
// Entries live in two generations, the current one of at most half the
// limit. A stored entry and a hit go to the current generation; when it is
// full it becomes the previous one, and the generation before is dropped
// (counted in serve.cache_evictions). A build looks each of its classes up
// once, so a build whose classes fit in half the limit leaves every one of
// them readable, however many entries it added: at most one rotation falls
// inside it, and a hit on the previous generation promotes the entry back.
type stfStore struct {
	mu        sync.Mutex
	cur, prev map[cacheKey]*core.SealedSTFs
	// half bounds the current generation, limit-half the previous one.
	half, limit int
	evictions   *obs.Counter
}

func newSTFStore(limit int, evictions *obs.Counter) *stfStore {
	st := &stfStore{half: max(1, limit/2), limit: limit, evictions: evictions}
	st.reset(nil)
	return st
}

// reset replaces the store's contents with entries, the first to fill the
// previous generation, the rest the current one; what fits in neither is
// left out.
func (st *stfStore) reset(entries []storeEntry) {
	st.cur = make(map[cacheKey]*core.SealedSTFs)
	st.prev = make(map[cacheKey]*core.SealedSTFs)
	for _, e := range entries {
		_, inPrev := st.prev[e.k]
		_, inCur := st.cur[e.k]
		switch {
		case inPrev || inCur: // a repeated key keeps its first entry
		case len(st.prev) < st.limit-st.half:
			st.prev[e.k] = e.e
		case len(st.cur) < st.half:
			st.cur[e.k] = e.e
		}
	}
}

type storeEntry struct {
	k cacheKey
	e *core.SealedSTFs
}

func (st *stfStore) get(k cacheKey) *core.SealedSTFs {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.cur[k]; ok {
		return e
	}
	e, ok := st.prev[k]
	if ok {
		st.add(k, e)
	}
	return e
}

func (st *stfStore) put(k cacheKey, e *core.SealedSTFs) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.add(k, e)
}

// add places an entry in the current generation, rotating first if it is
// full. Callers hold mu.
func (st *stfStore) add(k cacheKey, e *core.SealedSTFs) {
	delete(st.prev, k)
	if _, ok := st.cur[k]; !ok && len(st.cur) >= st.half {
		st.prev = st.cur
		if len(st.prev) > st.limit-st.half {
			st.prev = make(map[cacheKey]*core.SealedSTFs)
		}
		st.cur = make(map[cacheKey]*core.SealedSTFs)
		st.evictions.Inc()
	}
	st.cur[k] = e
}

func (st *stfStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.cur) + len(st.prev)
}

// runCache adapts the shared store to core.STFCache for one verification
// run, and the server's carried IS-IS and BGP results to routesim.Carrier. It
// memoizes the run-global fingerprint (topology, failure model, SR), each
// matched prefix's fingerprint and the guard hasher, so a class key costs a
// handful of words and a run hashes each prefix's RIB rows once, however
// many classes match it.
type runCache struct {
	srv    *Server
	hasher *mtbdd.Hasher

	global      cacheKey
	globalReady bool
	prefixes    map[netip.Prefix]cacheKey

	// lastRep/lastKey carry the key Lookup derived for the class it was last
	// asked about to the Store that follows a miss and its execution.
	lastRep topo.Flow
	lastKey cacheKey

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

// Lookup implements core.STFCache: unseal the class STF from the warm entry
// into e's manager. Defensive shape checks keep a stale or corrupt persisted
// entry from being materialized.
func (rc *runCache) Lookup(e *core.Engine, rep topo.Flow) (*core.FlowSTF, bool) {
	key := rc.classKey(e, rep)
	rc.lastRep, rc.lastKey = rep, key
	ent := rc.srv.store.get(key)
	reg := rc.srv.reg
	if ent == nil {
		rc.misses++
		reg.Counter("serve.class_cache_misses").Inc()
		if rc.srv.everRan.Load() {
			reg.Counter("serve.dirty_classes").Inc()
		}
		return nil, false
	}
	maxDir := 2 * e.Net().NumLinks()
	fits := int(ent.Snap.MaxLevel()) < e.Manager().NumVars()
	for _, l := range ent.STFs[0].Links {
		fits = fits && int(l) >= 0 && int(l) < maxDir
	}
	if !fits {
		rc.misses++
		reg.Counter("serve.class_cache_misses").Inc()
		return nil, false
	}
	stf := ent.Unseal(e.Manager(), []topo.Flow{rep})[0]
	rc.hits++
	reg.Counter("serve.class_cache_hits").Inc()
	return stf, true
}

// Store implements core.STFCache: seal a freshly executed class STF into the
// shared store, under the key the Lookup that missed on it derived. The
// entry holds no node, so it never keeps this run's manager alive.
func (rc *runCache) Store(e *core.Engine, rep topo.Flow, stf *core.FlowSTF) {
	key := rc.lastKey
	if rep != rc.lastRep {
		key = rc.classKey(e, rep)
	}
	rc.srv.store.put(key, core.SealSTFs([]*core.FlowSTF{stf}))
}
