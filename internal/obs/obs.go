// Package obs is the repo's zero-dependency instrumentation layer:
// a metrics registry (counters, timers, phase spans, per-manager MTBDD
// stats) threaded through the verification pipeline and surfaced by
// `yu -metrics=json|text` and the daemon's /v1/metrics.
//
// Design constraints (DESIGN.md §11):
//
//   - Nil-safe: every method on *Registry, *Counter and *Timer is a
//     no-op on a nil receiver, so instrumented code carries no
//     "is observability on?" branches. A nil registry is the off
//     switch and costs one predictable branch per call site.
//   - Allocation-free on the hot path: Counter and Timer are atomics;
//     call sites resolve them once (a mutex-guarded map lookup) and
//     then only Add. No time.Now() is ever placed inside the
//     symbolic-execution wavefront loop — KREDUCE effort there is
//     reported via manager counters instead (see core.LinkLoad).
//   - Leaf package: obs imports only the standard library and is
//     imported by mtbdd consumers, never the other way around. Manager
//     stats cross the boundary as the plain ManagerStats value type.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter ignores writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates wall-clock durations. The zero value is ready to
// use; a nil *Timer ignores writes and reads as zero.
type Timer struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Add folds one observed duration into the timer.
func (t *Timer) Add(d time.Duration) {
	if t == nil {
		return
	}
	t.ns.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns how many durations were folded in.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Registry is the per-run metrics store. Create one with New and pass
// it down via the options structs; a nil *Registry disables all
// recording.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	phases   map[string]*phaseAgg
	order    []string // phase paths in first-start order
	managers []ManagerStats
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
		phases:   make(map[string]*phaseAgg),
	}
}

// Counter returns (creating if needed) the named counter. Resolve once
// and keep the pointer; Add on the returned counter is lock-free.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Timer returns (creating if needed) the named timer.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// RecordManager records one MTBDD manager's stats snapshot (taken at
// the end of the manager's life, or of a check) under its name, replacing
// an earlier record of that name: a registry that outlives many checks —
// a kept build's, the daemon's — holds the latest of each, not one per
// check. Safe from concurrent goroutines (compose's domains record at once).
func (r *Registry) RecordManager(ms ManagerStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.managers {
		if r.managers[i].Name == ms.Name {
			r.managers[i] = ms
			return
		}
	}
	r.managers = append(r.managers, ms)
}

// phaseAgg aggregates every span that completed under one path.
type phaseAgg struct {
	ns    int64
	count int64
}

// Span is one in-flight phase measurement. Obtain with Registry.Span
// or Span.Child; close with End. Spans may be nested ("check/kreduce")
// and re-entered — the snapshot aggregates by path.
type Span struct {
	r     *Registry
	path  string
	start time.Time
}

// Span starts a top-level phase span.
func (r *Registry) Span(path string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, path: path, start: time.Now()}
}

// Child starts a sub-span whose path is parent/name.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.r.Span(s.path + "/" + name)
}

// End records the span's duration into the registry. Idempotence is
// not required — call exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	r := s.r
	r.mu.Lock()
	agg := r.phases[s.path]
	if agg == nil {
		agg = &phaseAgg{}
		r.phases[s.path] = agg
		r.order = append(r.order, s.path)
	}
	agg.ns += int64(d)
	agg.count++
	r.mu.Unlock()
}

// AddPhase records an externally measured duration under a phase path,
// for callers that already hold a wall-clock measurement (e.g. the
// routesim time the report carries).
func (r *Registry) AddPhase(path string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	agg := r.phases[path]
	if agg == nil {
		agg = &phaseAgg{}
		r.phases[path] = agg
		r.order = append(r.order, path)
	}
	agg.ns += int64(d)
	agg.count++
	r.mu.Unlock()
}

// Snapshot renders the registry's current contents. Safe to call while
// other goroutines are still recording (values are read atomically), though the
// canonical use is once, after the run.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	snap := &Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		TimersMS: make(map[string]TimerStat, len(r.timers)),
		Caches:   make(map[string]CacheCounters, len(knownCaches)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, t := range r.timers {
		snap.TimersMS[name] = TimerStat{
			MS:    float64(t.Total()) / float64(time.Millisecond),
			Count: t.Count(),
		}
	}
	for _, path := range r.order {
		agg := r.phases[path]
		snap.Phases = append(snap.Phases, PhaseStat{
			Path:  path,
			MS:    float64(agg.ns) / float64(time.Millisecond),
			Count: agg.count,
		})
	}
	snap.Managers = append([]ManagerStats(nil), r.managers...)
	sort.SliceStable(snap.Managers, func(i, j int) bool {
		return snap.Managers[i].Name < snap.Managers[j].Name
	})
	// Aggregate cache counters across managers; always emit every known
	// cache key so consumers can rely on the schema even when a cache
	// saw no traffic.
	for _, k := range knownCaches {
		snap.Caches[k] = CacheCounters{}
	}
	for _, ms := range snap.Managers {
		for k, cc := range ms.Caches {
			agg := snap.Caches[k]
			agg.Hits += cc.Hits
			agg.Misses += cc.Misses
			snap.Caches[k] = agg
		}
	}
	return snap
}

// knownCaches are the MTBDD cache names every snapshot reports, even
// at zero. Keep in sync with mtbdd.Stats (DESIGN.md §11).
var knownCaches = []string{"fused", "kreduce", "neg", "range"}

// ServeCounterNames is the counter schema of the incremental daemon
// (internal/serve, DESIGN.md §14). The daemon pre-creates every name at
// startup so `GET /v1/metrics` consumers can rely on the keys existing
// even at zero — the same schema guarantee knownCaches gives the MTBDD
// cache block. Per-run verification time is recorded under the "verify"
// phase, and each single-op POST /v1/delta — the apply, plus the verify
// when it asks for one — under the timer "serve.delta.<op>".
var ServeCounterNames = []string{
	"serve.class_cache_hits",        // equivalence classes served from the warm STF cache
	"serve.class_cache_misses",      // classes that had to be (re-)executed
	"serve.dirty_classes",           // cache misses attributable to an applied delta
	"serve.reloads",                 // accepted full-spec reloads
	"serve.deltas_applied",          // accepted delta operations
	"serve.deltas_rejected",         // rejected delta operations (invalid op or target)
	"serve.versions",                // versions published (initial load included)
	"serve.cache_evictions",         // warm-cache resets after exceeding the entry cap
	"serve.wal_records",             // delta batches journaled to the WAL
	"serve.wal_replayed",            // batches replayed from the WAL at startup
	"serve.wal_truncated",           // torn or corrupt WAL tails truncated away
	"serve.wal_errors",              // WAL append failures (the batch was refused)
	"serve.panics",                  // verification panics recovered by the daemon
	"serve.rejected",                // requests refused by admission control (503)
	"serve.timeouts",                // requests that hit their deadline (504)
	"serve.tlp_requests",            // portfolio evaluations served via POST /v1/tlp
	"serve.builds",                  // builds run (route simulation + execution or replay); at most one per version
	"serve.tlp_retained",            // portfolio evaluations answered on an already verified version: no build
	"serve.igp_carried",             // builds that replayed the IS-IS result an earlier build on the same topology sealed
	"serve.bgp_prefixes_carried",    // BGP prefixes replayed from the result an earlier build sealed, summed over builds
	"serve.bgp_prefixes_recomputed", // BGP prefixes a build recomputed (its inputs moved, or nothing was carried), summed over builds
	"serve.replayed_entries",        // snapshot entries replayed from the warm store: each stored list a build hits, once
	"serve.checks_carried",          // link checks a build took from the latest complete build: none of their inputs moved
	"serve.checks_run",              // checks a build ran (inputs moved, or a kind that is not carried), summed over builds
	"serve.loads_carried",           // loads a check replayed from an earlier check's sealed list: none of their classes moved
	"serve.loads_built",             // loads a check summed and stored (their classes moved, or none was stored)
}
