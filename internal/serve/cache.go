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

// stfStore is the shared warm cache: one class execution per entry. It
// outlives versions and reloads; content-hash keys make stale entries
// unreachable rather than wrong.
//
// The classes one build executed are sealed together, as one
// core.SealedSTFs list, when the build ends (runCache.seal), and each of
// their entries names its STF in that list: a later build replays each list
// it hits once, not one small snapshot per class, and nodes the classes share
// are stored once. A list is never larger than the snapshots its entries
// would hold one by one (held): when dropped entries would make it so, its
// survivors are sealed again on their own (settle).
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
	cur, prev map[cacheKey]warmEntry
	// half bounds the current generation, limit-half the previous one.
	half, limit int
	evictions   *obs.Counter
	// held is, per list some entry names, the summed sizes of those entries:
	// what the per-class layout would store for them. It is never below the
	// list's own length.
	held map[*core.SealedSTFs]int
	// touched lists lost an entry since the last settle.
	touched []*core.SealedSTFs
}

// warmEntry is one stored class: STF i of list l, whose roots reach size of
// l's snapshot entries — the length of the snapshot sealing it alone.
type warmEntry struct {
	l    *core.SealedSTFs
	i    int
	size int
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
	st.cur = make(map[cacheKey]warmEntry)
	st.prev = make(map[cacheKey]warmEntry)
	st.held = make(map[*core.SealedSTFs]int)
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

type storeEntry struct {
	k cacheKey
	e warmEntry
}

func (st *stfStore) get(k cacheKey) (warmEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.cur[k]; ok {
		return e, true
	}
	e, ok := st.prev[k]
	if ok {
		delete(st.prev, k)
		st.insert(k, e)
		st.settle()
	}
	return e, ok
}

// putList stores STF i of l under keys[i], for every i.
func (st *stfStore) putList(keys []cacheKey, l *core.SealedSTFs) {
	roots := make([][]uint32, len(l.STFs))
	for i, s := range l.STFs {
		roots[i] = s.Roots
	}
	sizes := l.Snap.Sizes(roots)
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, k := range keys {
		for _, gen := range []map[cacheKey]warmEntry{st.cur, st.prev} {
			if old, ok := gen[k]; ok {
				delete(gen, k)
				st.release(old)
			}
		}
		st.insert(k, warmEntry{l: l, i: i, size: sizes[i]})
		st.held[l] += sizes[i]
	}
	st.settle()
}

// insert places an entry whose key is in neither generation in the current
// one, rotating first if it is full. Callers hold mu and settle afterwards.
func (st *stfStore) insert(k cacheKey, e warmEntry) {
	if len(st.cur) >= st.half {
		dropped := st.prev
		st.prev, st.cur = st.cur, make(map[cacheKey]warmEntry)
		if len(st.prev) > st.limit-st.half {
			for _, old := range st.prev {
				st.release(old)
			}
			st.prev = make(map[cacheKey]warmEntry)
		}
		for _, old := range dropped {
			st.release(old)
		}
		st.evictions.Inc()
	}
	st.cur[k] = e
}

// release accounts for an entry leaving the store.
func (st *stfStore) release(e warmEntry) {
	st.held[e.l] -= e.size
	st.touched = append(st.touched, e.l)
}

// settle forgets the touched lists no entry names any more, and seals the
// survivors of each list its dropped entries have left larger than their
// own snapshots would be, on their own: a list of the survivors, in list
// order, holding only the entries they reach (subset).
func (st *stfStore) settle() {
	type ref struct {
		gen map[cacheKey]warmEntry
		k   cacheKey
	}
	over := make(map[*core.SealedSTFs][]ref)
	for _, l := range st.touched {
		switch h, ok := st.held[l]; {
		case !ok:
		case h == 0:
			delete(st.held, l)
		case h < l.Snap.Len():
			over[l] = nil
		}
	}
	st.touched = st.touched[:0]
	if len(over) == 0 {
		return
	}
	for _, gen := range []map[cacheKey]warmEntry{st.cur, st.prev} {
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
		nl := subset(l, idx)
		for j, r := range refs {
			r.gen[r.k] = warmEntry{l: nl, i: j, size: r.gen[r.k].size}
		}
		st.held[nl] = st.held[l]
		delete(st.held, l)
	}
}

// subset is the list of l's STFs idx, in that order, holding only the
// snapshot entries they reach: subset(l, []int{i}) is the list sealing STF i
// alone makes, entry for entry (mtbdd.Snapshot.Sub).
func subset(l *core.SealedSTFs, idx []int) *core.SealedSTFs {
	var roots []uint32
	for _, i := range idx {
		roots = append(roots, l.STFs[i].Roots...)
	}
	out := &core.SealedSTFs{STFs: make([]core.SealedSTF, len(idx))}
	var at []uint32
	out.Snap, at = l.Snap.Sub(roots)
	for j, i := range idx {
		s := l.STFs[i]
		n := len(s.Roots)
		s.Roots, at = at[:n:n], at[n:]
		out.STFs[j] = s
	}
	return out
}

func (st *stfStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.cur) + len(st.prev)
}

// runCache adapts the shared store to core.STFCache and core.CheckCarrier
// for one verification run, and the server's carried IS-IS and BGP results
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

// seal ends the build's use of the store: the classes it executed go in as
// one sealed list, and its replays are dropped. The list holds no node, so
// it never keeps this run's manager alive. Call it once the build is done
// and before anything can collect its manager — its verifier roots every
// stored STF until then.
func (rc *runCache) seal() {
	if len(rc.stored) > 0 {
		rc.srv.store.putList(rc.storedKey, core.SealSTFs(rc.stored))
	}
	rc.stored, rc.storedKey, rc.replays = nil, nil, nil
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
