// Package serve is the incremental verification-as-a-service layer behind
// cmd/yud (DESIGN.md §14): a resident server that loads a specification
// once, keeps parsed state, route-sim inputs, and per-class symbolic
// execution results warm, and re-verifies only what a configuration delta
// actually dirtied.
//
// Three mechanisms make it correct and fast:
//
//   - Content-hash invalidation: every equivalence class is keyed by one
//     128-bit routesim.Fingerprint of everything its execution reads: the
//     topology key (topology and failure model, which also identify the
//     IS-IS state, a function of them), the SR state, and per matched
//     prefix the fingerprint of its RIB candidates and statics on all
//     routers (see cache.go and routesim/hash.go). A delta invalidates
//     exactly the classes whose
//     fingerprints change; everything else is served from the warm STF
//     cache via mtbdd.Snapshot replay, which hash-consing makes
//     indistinguishable from re-execution. Reports are byte-identical to
//     a cold run — the delta-vs-cold oracle in internal/difftest holds
//     the daemon to that.
//   - Versioned immutable snapshots: every accepted reload or delta
//     publishes a new immutable version (canonical spec text + parsed
//     spec + lazily computed report). Queries pin one version with a
//     single atomic load, so concurrent readers never block on a reload
//     and never observe a half-applied one. A version is built once: the
//     state its report was checked on (a yu.Built) stays with it for as
//     long as it is reachable, and every portfolio query that pins the
//     version is a check on that state — no route simulation, no
//     execution, no cache replay (tlp.go).
//   - Crash consistency (DESIGN.md §15): with a state directory, every
//     accepted delta batch is journaled to a checksummed write-ahead log
//     (wal.go) before it is published, and replayed at startup — a
//     killed daemon restarted on the same spec file reconstructs exactly
//     the pre-crash version. The warm STF cache persists through an
//     fsync'd atomic rename (persist.go) as a latency aid; corrupt warm
//     state starts cold, never wrong.
package serve

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/fault"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/routesim"
	"github.com/yu-verify/yu/internal/topo"
)

// Config tunes a Server. The zero value verifies each spec under its own
// failure budget and mode, with no overload checking and no persistence.
type Config struct {
	// K overrides the spec's failure budget when > 0.
	K int
	// Mode overrides the spec's failure mode when ModeSet is true.
	Mode    topo.FailureMode
	ModeSet bool
	// OverloadFactor, when > 0, additionally checks every directed link
	// against factor × capacity (mirrors yu.VerifyOptions).
	OverloadFactor float64
	// StatePath is a directory for durable state: the delta WAL plus the
	// warm STF cache. Empty disables persistence (and with it crash
	// recovery of deltas).
	StatePath string
	// Obs receives the daemon's metrics; nil creates a private registry.
	Obs *obs.Registry
	// CacheLimit caps warm-cache entries (default 4096): the cache keeps
	// two generations of at most half of it each, and dropping the older
	// one is counted in serve.cache_evictions.
	CacheLimit int
	// VerifyTimeout, when > 0, bounds each version's verification run via
	// the governance deadline (yu.VerifyOptions.Ctx): an over-budget run
	// yields an INCOMPLETE partial report instead of hanging the daemon.
	VerifyTimeout time.Duration
	// RequestTimeout, when > 0, bounds how long an HTTP request waits for
	// a result before answering 504 (the computation itself continues and
	// is shared with later requests).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently admitted HTTP requests; excess
	// requests are refused with 503 + Retry-After and counted in
	// serve.rejected. Default 256. /v1/healthz is exempt.
	MaxInFlight int
	// MaxBodyBytes bounds HTTP request bodies (default 16 MiB); larger
	// bodies are refused with 413.
	MaxBodyBytes int64
}

// RunStats summarizes one version's verification against the warm cache.
type RunStats struct {
	// CacheHits is the number of equivalence classes served from the
	// warm STF cache; CacheMisses the number symbolically re-executed.
	CacheHits, CacheMisses int64
}

// RunResult is the outcome of verifying one version.
type RunResult struct {
	// Version identifies the immutable spec version this result belongs
	// to. Every API response cites exactly one version.
	Version int64
	Holds   bool
	// Text is the canonical report rendering (canon.FormatReport) — the
	// byte-identity contract surface.
	Text   string
	Report *yu.Report
	Stats  RunStats
	// Err is the verification error, if the run was cut short.
	Err error
}

// version is one immutable published state: canonical spec text, the
// parsed spec, and the lazily computed verification result with the state
// it was computed on. All fields except the once-guarded result and build
// are written before publication and never after.
type version struct {
	id   int64
	text string
	spec *config.Spec
	srv  *Server

	once   sync.Once
	done   chan struct{}
	result RunResult
	// build is the verifier state the result was checked on, trimmed and
	// kept for the portfolio queries that pin this version; nil when the
	// build failed (result.Err says why). It is written before done is
	// closed, so whoever has waited for done reads it without a lock — and
	// uses it only while holding lock, a manager being single-threaded. It
	// lives as long as the version is reachable: from s.cur, or from a
	// reader still in flight.
	build *yu.Built
	lock  chan struct{} // capacity 1: held while build is in use
}

// Server is the resident verification service. Mutations (LoadSpecText,
// ApplyDeltas) serialize on an internal mutex and publish new versions
// atomically; reads (Report, SpecText) are lock-free on the version
// pointer and safe to call concurrently with mutations.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	store *stfStore

	mu     sync.Mutex // serializes mutations and persistence
	cur    atomic.Pointer[version]
	nextID atomic.Int64
	wal    *wal

	inflight chan struct{}

	everRan atomic.Bool

	// igp is the IS-IS result the latest build that computed one sealed,
	// keyed by its topology (routesim.ImportBase); bgp the BGP result the
	// latest build that recomputed a prefix sealed, keyed by its BGP inputs
	// (routesim.BGPBase). Builds of concurrently computing versions share
	// them under carryMu; the bases themselves are immutable and hold no
	// node, so they pin no version's manager.
	carryMu sync.Mutex
	igp     *routesim.ImportBase
	bgp     *routesim.BGPBase
	// checks are the plan results of the latest build whose checks all ran,
	// by their inputs' fingerprint (core.CheckCarrier).
	checks map[routesim.Fingerprint]core.PlanResult
}

// NewServer creates a server with no loaded spec. If cfg.StatePath is
// set, persisted warm state is loaded best-effort (corrupt state logs a
// warning and starts cold); the delta WAL is attached and replayed on the
// first LoadSpecText.
func NewServer(cfg Config) *Server {
	if cfg.CacheLimit <= 0 {
		cfg.CacheLimit = 4096
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		store:    newSTFStore(cfg.CacheLimit, reg.Counter("serve.cache_evictions")),
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	for _, name := range obs.ServeCounterNames {
		reg.Counter(name)
	}
	if cfg.StatePath != "" {
		s.loadState()
	}
	return s
}

// Metrics exposes the server's registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Version returns the current version ID (0 before the first load).
func (s *Server) Version() int64 {
	if v := s.cur.Load(); v != nil {
		return v.id
	}
	return 0
}

// SpecText returns the current canonical spec text and its version.
func (s *Server) SpecText() (string, int64) {
	v := s.cur.Load()
	if v == nil {
		return "", 0
	}
	return v.text, v.id
}

// LoadSpecText parses, canonicalizes, and publishes a full specification,
// returning the ID of the version now current. The warm cache is kept:
// content hashing makes stale entries unreachable and shared ones
// reusable.
//
// With a state directory, the first load after construction is the
// recovery point: if the delta WAL on disk is bound to this base text,
// every committed batch is replayed on top of it (returning the replayed
// head's ID — the exact pre-crash version). Any later load, and any
// first load with a different base, resets the WAL: a full reload
// supersedes the journal.
func (s *Server) LoadSpecText(text string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.buildVersion(text)
	if err != nil {
		return 0, err
	}
	first := s.cur.Load() == nil
	s.publish(v)
	s.reg.Counter("serve.reloads").Inc()
	if s.cfg.StatePath != "" {
		if s.wal == nil {
			w, werr := openWAL(s.cfg.StatePath)
			if werr != nil {
				log.Printf("yud: delta WAL: %v; running without crash recovery", werr)
				s.reg.Counter("serve.wal_errors").Inc()
			}
			s.wal = w
		}
		if s.wal != nil {
			if first {
				s.recoverWAL(v)
			} else if err := s.wal.reset(v.text); err != nil {
				log.Printf("yud: resetting delta WAL: %v; closing it", err)
				s.reg.Counter("serve.wal_errors").Inc()
				s.wal.close()
				s.wal = nil
			}
		}
	}
	return s.Version(), nil
}

// recoverWAL replays the journal on top of the just-published base
// version (caller holds s.mu). Replay is exact or it stops: every
// record's deltas must re-apply and reproduce the canonical text whose
// checksum was journaled with the batch; the first record that cannot —
// torn tail, corruption, or divergence — truncates the journal there, so
// recovery yields precisely the longest committed prefix.
func (s *Server) recoverWAL(base *version) {
	recs, offs, matched, torn, err := s.wal.load(base.text)
	if err != nil {
		log.Printf("yud: reading delta WAL: %v; resetting it", err)
		s.reg.Counter("serve.wal_errors").Inc()
		s.resetOrDropWAL(base.text)
		return
	}
	if torn {
		log.Printf("yud: delta WAL had a torn or corrupt tail; truncated")
		s.reg.Counter("serve.wal_truncated").Inc()
	}
	if !matched {
		s.resetOrDropWAL(base.text)
		return
	}
	replayed := 0
	for i, rec := range recs {
		bad := func(why string, args ...any) {
			log.Printf("yud: delta WAL replay stopped at record %d: "+why, append([]any{i}, args...)...)
			s.reg.Counter("serve.wal_truncated").Inc()
			if terr := s.wal.truncateTo(offs[i]); terr != nil {
				log.Printf("yud: truncating delta WAL: %v; closing it", terr)
				s.wal.close()
				s.wal = nil
			}
		}
		if err := fault.Here("serve.wal.replay"); err != nil {
			bad("%v", err)
			return
		}
		cur := s.cur.Load()
		text, err := ApplyToText(cur.text, rec.Deltas)
		if err != nil {
			bad("%v", err)
			return
		}
		if uint32(len(text)) != rec.ResultLen || walTextSum(text) != rec.ResultSum {
			bad("replayed text does not match journaled checksum")
			return
		}
		v, err := s.buildVersion(text)
		if err != nil {
			bad("%v", err)
			return
		}
		s.publish(v)
		replayed++
	}
	if replayed > 0 {
		log.Printf("yud: replayed %d delta batch(es) from the WAL; current version is the pre-crash state", replayed)
		s.reg.Counter("serve.wal_replayed").Add(int64(replayed))
	}
}

func (s *Server) resetOrDropWAL(baseText string) {
	if err := s.wal.reset(baseText); err != nil {
		log.Printf("yud: resetting delta WAL: %v; closing it", err)
		s.reg.Counter("serve.wal_errors").Inc()
		s.wal.close()
		s.wal = nil
	}
}

// ApplyToText applies a delta batch to a canonical spec text and returns
// the canonical text of the result — the pure mutation function shared
// by ApplyDeltas, WAL replay, and the chaos oracle, so every path that
// materializes "base + deltas" agrees byte-for-byte.
func ApplyToText(text string, deltas []Delta) (string, error) {
	spec, err := config.ParseSpecString(text)
	if err != nil {
		return "", fmt.Errorf("serve: current spec no longer parses: %w", err)
	}
	for i, d := range deltas {
		if err := applyDelta(spec, d); err != nil {
			return "", fmt.Errorf("serve: delta %d (%s): %w", i, d.Op, err)
		}
	}
	out, err := canon.FormatSpec(spec)
	if err != nil {
		return "", fmt.Errorf("serve: mutated spec is not canonicalizable: %w", err)
	}
	return out, nil
}

// ApplyDeltas applies a sequence of deltas to the current spec as one
// atomic mutation: all apply, or the current version stays. With a state
// directory the batch is journaled and fsync'd before it is published —
// the journal append is the commit point, so a crash on either side of
// it leaves the batch either fully recoverable or fully absent. Returns
// the new version ID.
func (s *Server) ApplyDeltas(deltas []Delta) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reject := func(err error) (int64, error) {
		s.reg.Counter("serve.deltas_rejected").Add(int64(len(deltas)))
		return 0, err
	}
	cur := s.cur.Load()
	if cur == nil {
		return reject(fmt.Errorf("serve: no specification loaded"))
	}
	if err := fault.Here("serve.delta.apply"); err != nil {
		return reject(err)
	}
	text, err := ApplyToText(cur.text, deltas)
	if err != nil {
		return reject(err)
	}
	v, err := s.buildVersion(text)
	if err != nil {
		return reject(err)
	}
	if s.wal != nil {
		if err := s.wal.append(deltas, v.text); err != nil {
			s.reg.Counter("serve.wal_errors").Inc()
			return reject(fmt.Errorf("serve: journaling delta batch: %w", err))
		}
		s.reg.Counter("serve.wal_records").Inc()
	}
	// Crash-only injection point: the batch is durable but unpublished —
	// recovery must still surface it (any error kind here is ignored).
	fault.Here("serve.wal.publish")
	s.publish(v)
	s.reg.Counter("serve.deltas_applied").Add(int64(len(deltas)))
	return v.id, nil
}

// buildVersion parses and canonicalizes text into an unpublished version.
// The canonical text is the version identity; a spec the canonical
// renderer cannot express (e.g. asymmetric hand-written link costs) falls
// back to the raw text.
func (s *Server) buildVersion(text string) (*version, error) {
	spec, err := config.ParseSpecString(text)
	if err != nil {
		return nil, err
	}
	// A text that is already canonical — every ApplyToText result, every
	// /v1/spec answer loaded back — is its own fixpoint: spec is its parse.
	if ct, cerr := canon.FormatSpec(spec); cerr == nil && ct != text {
		cspec, perr := config.ParseSpecString(ct)
		if perr != nil {
			return nil, fmt.Errorf("serve: canonical spec does not re-parse: %w", perr)
		}
		text, spec = ct, cspec
	}
	return &version{id: s.nextID.Add(1), text: text, spec: spec, srv: s,
		done: make(chan struct{}), lock: make(chan struct{}, 1)}, nil
}

func (s *Server) publish(v *version) {
	s.cur.Store(v)
	s.reg.Counter("serve.versions").Inc()
}

// Report verifies the current version (at most once — concurrent callers
// share the computation) and returns its result.
func (s *Server) Report() (RunResult, error) {
	return s.ReportCtx(context.Background())
}

// ReportCtx is Report bounded by a caller context: it waits for the
// pinned version's (shared, at-most-once) verification until ctx
// expires. The computation itself is not canceled by ctx — it keeps its
// own VerifyTimeout budget and later callers reuse it.
func (s *Server) ReportCtx(ctx context.Context) (RunResult, error) {
	v := s.cur.Load()
	if v == nil {
		return RunResult{}, fmt.Errorf("serve: no specification loaded")
	}
	if err := v.await(ctx); err != nil {
		return RunResult{}, err
	}
	return v.result, nil
}

// await kicks off the version's verification exactly once — on its own
// goroutine, so callers can bound their wait — and waits for it until ctx
// expires. Every reader of a version shares the one run.
func (v *version) await(ctx context.Context) error {
	v.once.Do(func() {
		go func() {
			defer close(v.done)
			v.compute()
		}()
	})
	select {
	case <-v.done:
		return nil
	case <-ctx.Done():
		v.srv.reg.Counter("serve.timeouts").Inc()
		return fmt.Errorf("serve: waiting for verification of version %d: %w", v.id, ctx.Err())
	}
}

// compute runs the version's verification: build once, check the spec's
// properties, and leave the build — trimmed — on the version for the
// portfolio queries to come. Panics are contained: the version's result
// carries the error and the daemon keeps serving (panics in execution and
// checks are already contained by governance — this is the serve-layer
// backstop, exercised by fault injection).
func (v *version) compute() {
	s := v.srv
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("serve.panics").Inc()
			v.result = RunResult{Version: v.id, Err: fmt.Errorf("serve: verification panic: %v", r)}
		}
	}()
	sp := s.reg.Span("verify")
	defer sp.End()
	if err := fault.Here("serve.verify.run"); err != nil {
		v.result = RunResult{Version: v.id, Err: err}
		return
	}
	ctx := context.Background()
	if s.cfg.VerifyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.VerifyTimeout)
		defer cancel()
	}
	rc := newRunCache(s)
	s.reg.Counter("serve.builds").Inc()
	b, err := yu.FromSpec(v.spec).Build(yu.VerifyOptions{
		K:              s.cfg.K,
		Mode:           s.cfg.Mode,
		ModeSet:        s.cfg.ModeSet,
		OverloadFactor: s.cfg.OverloadFactor,
		Ctx:            ctx,
		Obs:            s.reg,
		STFCache:       rc,
	})
	rc.seal()
	var rep *yu.Report
	if b != nil {
		rep, err = b.Verify(ctx)
		b.Trim()
		v.build = b
	}
	v.result = RunResult{
		Version: v.id,
		Report:  rep,
		Err:     err,
		Stats:   RunStats{CacheHits: rc.hits, CacheMisses: rc.misses},
	}
	if rep != nil {
		v.result.Holds = rep.Holds
		v.result.Text = canon.FormatReport(v.spec.Net, rep)
	}
	if err == nil {
		s.everRan.Store(true)
	}
}
