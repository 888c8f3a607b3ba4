// Warm STF cache: content-hash keys, the core.STFCache adapter consulted
// by the verifier, and the version-independent store that survives reloads
// (and, via persist.go, restarts).
package serve

import (
	"math"
	"net/netip"
	"sync"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// cacheKey is the 128-bit content fingerprint of one equivalence class's
// complete execution input surface. Two independent mixes of the same
// token stream make accidental collisions negligible (~2^-64 at any
// realistic cache population).
type cacheKey struct {
	a, b uint64
}

// tok accumulates the typed token stream a fingerprint hashes. Tokens
// are length-prefixed where variable-sized, so distinct field sequences
// cannot collide by concatenation.
type tok struct {
	s []uint64
}

func (t *tok) u64(x uint64) { t.s = append(t.s, x) }

func (t *tok) b(x bool) {
	if x {
		t.u64(1)
	} else {
		t.u64(2)
	}
}

func (t *tok) str(s string) {
	t.u64(uint64(len(s)))
	var acc, n uint64
	for i := 0; i < len(s); i++ {
		acc = acc<<8 | uint64(s[i])
		if n++; n == 8 {
			t.u64(acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		t.u64(acc)
	}
}

func (t *tok) addr(a netip.Addr) {
	b := a.As16()
	for i := 0; i < 16; i += 8 {
		var x uint64
		for j := 0; j < 8; j++ {
			x = x<<8 | uint64(b[i+j])
		}
		t.u64(x)
	}
	t.b(a.Is4())
}

func (t *tok) prefix(p netip.Prefix) {
	t.addr(p.Addr())
	t.u64(uint64(int64(p.Bits())))
}

// key derives the two independent 64-bit mixes: an FNV-1a pass and a
// splitmix-chained pass over the same tokens.
func (t *tok) key() cacheKey {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	a := uint64(fnvOffset)
	b := uint64(0x2545f4914f6cdd1d)
	for _, x := range t.s {
		for i := 0; i < 8; i++ {
			a = (a ^ (x >> (8 * i) & 0xff)) * fnvPrime
		}
		b = mix64(b ^ mix64(x+0x9e3779b97f4a7c15))
	}
	return cacheKey{a, b}
}

// mix64 is the splitmix64 finalizer (same construction as mtbdd's).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stfStore is the shared warm cache: one class execution per entry, sealed
// (a one-STF core.SealedSTFs). It outlives versions and reloads;
// content-hash keys make stale entries unreachable rather than wrong.
type stfStore struct {
	mu      sync.Mutex
	entries map[cacheKey]*core.SealedSTFs
	limit   int
}

func newSTFStore(limit int) *stfStore {
	return &stfStore{entries: make(map[cacheKey]*core.SealedSTFs), limit: limit}
}

func (st *stfStore) get(k cacheKey) *core.SealedSTFs {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries[k]
}

// put inserts an entry, resetting the whole cache first if it is full
// (full reset keeps the policy trivially correct; evictions are rare and
// counted so capacity tuning is visible).
func (st *stfStore) put(k cacheKey, e *core.SealedSTFs, evictC *obs.Counter) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.entries[k]; !ok && len(st.entries) >= st.limit {
		st.entries = make(map[cacheKey]*core.SealedSTFs)
		evictC.Inc()
	}
	st.entries[k] = e
}

func (st *stfStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// runCache adapts the shared store to core.STFCache for one verification
// run, and the server's carried IS-IS result to routesim.IGPCarrier. It
// memoizes the run-global fingerprint (topology, failure model, IGP, SR),
// each matched prefix's fingerprint and the guard hasher, so a class key
// costs a handful of tokens and a run hashes each prefix's RIB rows once,
// however many classes match it.
type runCache struct {
	srv    *Server
	hasher *mtbdd.Hasher

	// igpHash is the run's IS-IS fingerprint, sealed with the IS-IS result
	// the run replayed or computed; route simulation sets it before any
	// class key is derived.
	igpHash   uint64
	igpHashed bool

	global      [2]uint64
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

// globalTokens fingerprints everything every class execution reads:
// topology identity (names pin router/link indices), the failure model,
// and the complete guarded IGP and SR state.
func (rc *runCache) globalFP(e *core.Engine) [2]uint64 {
	if rc.globalReady {
		return rc.global
	}
	var t tok
	net := e.Net()
	fv := e.Vars()
	rs := e.RouteSim()
	t.u64(uint64(len(net.Routers)))
	for i := range net.Routers {
		r := &net.Routers[i]
		t.str(r.Name)
		t.u64(uint64(r.AS))
		t.addr(r.Loopback)
		t.b(r.NoFail)
	}
	t.u64(uint64(len(net.Links)))
	for i := range net.Links {
		l := &net.Links[i]
		t.u64(uint64(int64(l.A)))
		t.u64(uint64(int64(l.B)))
		t.u64(uint64(l.CostAB))
		t.u64(uint64(l.CostBA))
		t.u64(math.Float64bits(l.Capacity))
		t.addr(l.AddrA)
		t.addr(l.AddrB)
		t.b(l.NoFail)
	}
	t.u64(uint64(int64(fv.K)))
	t.u64(uint64(int64(fv.Mode)))
	if !rc.igpHashed {
		panic("serve: a class key was derived before route simulation carried its IS-IS fingerprint")
	}
	t.u64(rc.igpHash)
	t.u64(rs.HashSR(rc.hasher))
	k := t.key()
	rc.global = [2]uint64{k.a, k.b}
	rc.globalReady = true
	return rc.global
}

// prefixFP fingerprints what forwarding pfx reads anywhere in the network:
// every router's RIB candidates and exact-prefix statics for it, in router
// order. Classes share matched prefixes (some 1 740 classes match 36 on the
// benchmark's daemon input), so it is computed once a run.
func (rc *runCache) prefixFP(e *core.Engine, pfx netip.Prefix) cacheKey {
	if fp, ok := rc.prefixes[pfx]; ok {
		return fp
	}
	rs := e.RouteSim()
	var t tok
	for r := 0; r < e.Net().NumRouters(); r++ {
		t.u64(rs.HashPrefix(topo.RouterID(r), pfx, rc.hasher))
	}
	fp := t.key()
	rc.prefixes[pfx] = fp
	rc.srv.reg.Counter("serve.prefix_fingerprints").Inc()
	return fp
}

// classKey fingerprints one class's execution inputs: the run-global
// state plus the class identity (ingress, DSCP, matched prefix list) and,
// through each matched prefix's fingerprint, every router's RIB candidates
// and statics for those prefixes.
func (rc *runCache) classKey(e *core.Engine, rep topo.Flow) cacheKey {
	g := rc.globalFP(e)
	var t tok
	t.u64(g[0])
	t.u64(g[1])
	t.str(e.Net().Router(rep.Ingress).Name)
	t.u64(uint64(rep.DSCP))
	prefixes := e.ClassPrefixes(rep.Dst)
	t.u64(uint64(len(prefixes)))
	for _, pfx := range prefixes {
		t.prefix(pfx)
		fp := rc.prefixFP(e, pfx)
		t.u64(fp.a)
		t.u64(fp.b)
	}
	return t.key()
}

// CarriedIGP implements routesim.IGPCarrier: the IS-IS result an earlier
// build sealed, when it was sealed under key — the same routers and links,
// failure mode and budget. Any other topology misses and computes its own.
func (rc *runCache) CarriedIGP(key routesim.TopoKey) *routesim.ImportBase {
	s := rc.srv
	s.igpMu.Lock()
	b := s.igp
	s.igpMu.Unlock()
	if b == nil || b.Key() != key {
		return nil
	}
	rc.igpHash, rc.igpHashed = b.IGPHash(), true
	s.reg.Counter("serve.igp_carried").Inc()
	return b
}

// CarryIGP implements routesim.IGPCarrier: the freshly computed result,
// sealed, replaces the server's carried one.
func (rc *runCache) CarryIGP(b *routesim.ImportBase) {
	s := rc.srv
	s.igpMu.Lock()
	s.igp = b
	s.igpMu.Unlock()
	rc.igpHash, rc.igpHashed = b.IGPHash(), true
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
// entry holds no node, so it never keeps this run's manager alive. Degraded
// (fallback-built) STFs are not cached — they depend on the governance
// budget, not just the route state.
func (rc *runCache) Store(e *core.Engine, rep topo.Flow, stf *core.FlowSTF) {
	if stf == nil || stf.Degraded {
		return
	}
	key := rc.lastKey
	if rep != rc.lastRep {
		key = rc.classKey(e, rep)
	}
	rc.srv.store.put(key, core.SealSTFs([]*core.FlowSTF{stf}), rc.srv.reg.Counter("serve.cache_evictions"))
}
