// Package server implements the s3serve query-serving subsystem: a
// long-lived HTTP front-end over a frozen S3 instance — a single
// snapshot-backed instance or a component-sharded shard set, both served
// through the s3.Queryable abstraction (a plain instance is the
// degenerate one-shard case, with no behavioural difference). The
// instance is held in a snap.Current so it can be hot-swapped
// (POST /reload) while searches are in flight; finished answers go
// through an LRU result cache, which is re-warmed after a reload by
// replaying the cached queries against the new instance; identical
// concurrent queries are coalesced into a single engine call; and a
// bounded worker pool caps the number of searches executing at once
// regardless of how many connections the HTTP layer accepts.
//
// Endpoints:
//
//	POST /search    run an S3k top-k query (JSON body, see searchRequest;
//	                ?trace=1 returns the search's span tree inline)
//	GET  /extension semantic extension of a keyword (?keyword=...)
//	GET  /stats     instance statistics, per-shard stats, serving counters
//	GET  /metrics   Prometheus text exposition of the process registry
//	GET  /debug/traces  recent retained traces (newest first)
//	GET  /healthz   readiness probe (503 while draining — routers stop
//	                sending before a graceful shutdown or roll)
//	GET  /livez     liveness probe (200 as long as the process serves HTTP)
//	POST /reload    re-load the instance from its source and swap it in
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s3"
	"s3/internal/obs"
	"s3/internal/snap"
)

// Config assembles a Server.
type Config struct {
	// Instance is the initially served instance: a *s3.Instance or a
	// *s3.ShardedInstance.
	Instance s3.Queryable
	// Loader re-loads the instance for POST /reload (typically re-reading
	// a snapshot file or shard set). nil disables reloading.
	Loader func() (s3.Queryable, error)
	// CacheSize is the result-cache capacity in entries; 0 picks the
	// default (1024), negative disables caching.
	CacheSize int
	// ProxCacheBytes budgets the seeker-proximity checkpoint cache that
	// serves the warm path under the result cache: a result-cache miss
	// whose seeker has a cached exploration frontier resumes it instead of
	// re-propagating the social graph. 0 picks the default (64 MiB),
	// negative disables it.
	ProxCacheBytes int64
	// Workers bounds concurrently executing searches; 0 picks
	// GOMAXPROCS.
	Workers int
	// MaxQueue bounds how many searches may wait for a worker slot beyond
	// the Workers executing ones; arrivals past the bound are shed
	// immediately with 429 and a Retry-After hint instead of piling onto
	// an already saturated process. 0 picks 8×Workers, negative disables
	// the bound.
	MaxQueue int
	// MaxQueueWait caps how long an admitted search may wait for a worker
	// slot before it is shed with 429: a query that would blow its
	// client's patience budget anyway is cheaper to refuse than to run.
	// 0 picks 2s, negative disables the cap.
	MaxQueueWait time.Duration
	// LoadMS records how long the initial Instance load took (surfaced in
	// /stats; reload times are measured by the server itself).
	LoadMS int64
	// Registry receives the process's instruments and backs GET /metrics;
	// nil gets a fresh registry (Registry() returns it either way).
	Registry *obs.Registry
	// SlowLog, when non-nil, receives one JSON line per search slower
	// than its threshold (searches are then always traced so the line can
	// carry a per-stage breakdown).
	SlowLog *obs.SlowLog
}

// DefaultCacheSize is the result-cache capacity when Config leaves it 0.
const DefaultCacheSize = 1024

// DefaultProxCacheBytes is the proximity-cache budget when Config leaves
// it 0.
const DefaultProxCacheBytes int64 = 64 << 20

// DefaultMaxQueueWait caps the worker-slot wait when Config leaves
// MaxQueueWait 0.
const DefaultMaxQueueWait = 2 * time.Second

// served is the unit of hot-swap: an instance (single or sharded) and
// how it was loaded. The server holds it in a snap.Current, so a mapped
// instance is closed (unmapped) only after a reload has swapped it out
// and the last in-flight request reading it has finished.
type served struct {
	inst     s3.Queryable
	loadedAt time.Time
	loadMS   int64
}

// Close closes the instance; its generation calls it once it retires.
func (v served) Close() error { return v.inst.Close() }

// generation is one installed instance with its load generation (the
// cache keys' and /stats' version).
type generation = snap.Generation[served]

// call is one in-flight search other identical requests can wait on.
type call struct {
	done chan struct{}
	resp *searchResponse
	err  *httpError
}

// Server serves S3k queries over HTTP. Create with New.
type Server struct {
	cfg   Config
	cur   snap.Current[served]
	sem   chan struct{}
	start time.Time

	// Admission queue bound: waiting counts searches parked on sem;
	// arrivals seeing waiting >= maxQueue are shed immediately, admitted
	// ones are shed after maxQueueWait. Zero values disable each bound.
	waiting      atomic.Int64
	maxQueue     int64
	maxQueueWait time.Duration

	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*call

	// prox is the seeker-proximity checkpoint cache, attached to every
	// served instance generation and purged across reloads. nil when
	// disabled.
	prox *s3.ProxCache

	// reloadMu serialises reloads so two concurrent POST /reload cannot
	// install different instances under the same version number.
	reloadMu sync.Mutex

	// draining flips /healthz readiness off ahead of a graceful shutdown:
	// external routers and coordinators stop picking this replica while
	// its in-flight requests finish (liveness stays green on /livez).
	draining atomic.Bool

	// lifetime counters (atomics; mu not required)
	searches  atomic.Uint64
	coalesced atomic.Uint64
	reloads   atomic.Uint64
	warmed    atomic.Uint64

	// observability: the process registry behind GET /metrics, the
	// engine-level search instruments attached to every served instance
	// generation, the per-outcome HTTP latency histograms, the retained
	// trace ring behind GET /debug/traces and the slow-query log.
	reg          *obs.Registry
	sm           *s3.SearchMetrics
	outcomes     map[string]*obs.Histogram
	searchErrors *obs.Counter
	shed         map[string]*obs.Counter
	traces       *obs.TraceRing
	slow         *obs.SlowLog
}

// search outcomes label the HTTP latency histogram: how the answer was
// produced, from cheapest to most expensive.
const (
	outcomeCached    = "cached"    // result-cache hit
	outcomeCoalesced = "coalesced" // joined an identical in-flight search
	outcomeWarm      = "warm"      // ran, resuming a proximity checkpoint
	outcomeCold      = "cold"      // ran from scratch
)

// New wires a server around an instance.
func New(cfg Config) (*Server, error) {
	if cfg.Instance == nil {
		return nil, fmt.Errorf("server: nil instance")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	if cacheSize < 0 {
		cacheSize = 0
	}
	proxBytes := cfg.ProxCacheBytes
	if proxBytes == 0 {
		proxBytes = DefaultProxCacheBytes
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxQueue := int64(cfg.MaxQueue)
	if maxQueue == 0 {
		maxQueue = int64(8 * workers)
	}
	if maxQueue < 0 {
		maxQueue = 0 // unbounded
	}
	maxQueueWait := cfg.MaxQueueWait
	if maxQueueWait == 0 {
		maxQueueWait = DefaultMaxQueueWait
	}
	if maxQueueWait < 0 {
		maxQueueWait = 0 // uncapped
	}
	s := &Server{
		cfg:          cfg,
		sem:          make(chan struct{}, workers),
		start:        time.Now(),
		maxQueue:     maxQueue,
		maxQueueWait: maxQueueWait,
		cache:        newLRUCache(cacheSize),
		inflight:     make(map[string]*call),
		reg:          reg,
		sm:           obs.NewSearchMetrics(reg),
		traces:       obs.NewTraceRing(0),
		slow:         cfg.SlowLog,
	}
	s.outcomes = make(map[string]*obs.Histogram, 4)
	for _, o := range []string{outcomeCached, outcomeCoalesced, outcomeWarm, outcomeCold} {
		s.outcomes[o] = reg.Histogram("s3_http_search_seconds",
			"POST /search latency by how the answer was produced.", nil, obs.L("outcome", o))
	}
	s.searchErrors = reg.Counter("s3_http_search_errors_total",
		"POST /search requests that failed after validation.")
	s.shed = make(map[string]*obs.Counter, 2)
	for _, reason := range []string{shedQueueFull, shedTimeout} {
		s.shed[reason] = reg.Counter("s3_http_shed_total",
			"POST /search requests shed by admission control (429).", obs.L("reason", reason))
	}
	s.registerFuncMetrics()
	if proxBytes > 0 {
		s.prox = s3.NewProxCache(proxBytes)
		cfg.Instance.SetProxCache(s.prox)
	}
	s.instrument(cfg.Instance)
	s.cur.Install(served{inst: cfg.Instance, loadedAt: time.Now(), loadMS: cfg.LoadMS})
	return s, nil
}

// registerFuncMetrics exposes the server's existing atomics and cache
// statistics through the registry without restructuring them.
func (s *Server) registerFuncMetrics() {
	r := s.reg
	r.GaugeFunc("s3_uptime_seconds", "Seconds since the serving process started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("s3_server_generation", "Load generation of the served instance (bumped by /reload).",
		func() float64 { return float64(s.cur.Peek().Version) })
	r.CounterFunc("s3_http_searches_total", "Engine searches executed (cache hits and coalesced joins excluded).",
		func() float64 { return float64(s.searches.Load()) })
	r.CounterFunc("s3_http_coalesced_total", "Requests that joined an identical in-flight search.",
		func() float64 { return float64(s.coalesced.Load()) })
	r.CounterFunc("s3_reloads_total", "Successful instance reloads.",
		func() float64 { return float64(s.reloads.Load()) })
	r.CounterFunc("s3_slowlog_emitted_total", "Slow-query log lines written.",
		func() float64 { return float64(s.slow.Emitted()) })
	cacheCount := func(pick func() uint64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(pick())
		}
	}
	r.CounterFunc("s3_cache_hits_total", "Result-cache hits.", cacheCount(func() uint64 { return s.cache.hits }))
	r.CounterFunc("s3_cache_misses_total", "Result-cache misses.", cacheCount(func() uint64 { return s.cache.misses }))
	r.CounterFunc("s3_cache_evictions_total", "Result-cache LRU evictions.", cacheCount(func() uint64 { return s.cache.evictions }))
	r.GaugeFunc("s3_cache_size", "Result-cache entries currently held.", cacheCount(func() uint64 { return uint64(s.cache.len()) }))
	r.CounterFunc("s3_cache_warmed_total", "Cache entries re-computed by post-reload warming.",
		func() float64 { return float64(s.warmed.Load()) })
	prox := func(pick func(s3.ProxCacheStats) float64) func() float64 {
		return func() float64 {
			if s.prox == nil {
				return 0
			}
			return pick(s.prox.Stats())
		}
	}
	r.CounterFunc("s3_proxcache_hits_total", "Proximity-cache checkpoint hits (searches that resumed warm).",
		prox(func(st s3.ProxCacheStats) float64 { return float64(st.Hits) }))
	r.CounterFunc("s3_proxcache_misses_total", "Proximity-cache misses (searches that explored from scratch).",
		prox(func(st s3.ProxCacheStats) float64 { return float64(st.Misses) }))
	r.GaugeFunc("s3_proxcache_bytes", "Bytes held by the proximity cache.",
		prox(func(st s3.ProxCacheStats) float64 { return float64(st.Bytes) }))
	r.GaugeFunc("s3_proxcache_entries", "Checkpoints held by the proximity cache.",
		prox(func(st s3.ProxCacheStats) float64 { return float64(st.Entries) }))
	r.GaugeFunc("s3_mapped_bytes", "Snapshot bytes backing the served instance through memory mappings.",
		func() float64 {
			st := s.cur.Acquire()
			defer st.Release()
			return float64(st.Value.inst.MappedBytes())
		})
}

// instrument attaches the process-wide observability to a freshly loaded
// instance before it takes traffic: the engine-level search instruments,
// and — when the instance fronts a worker fleet — the coordinator's wire
// instruments.
func (s *Server) instrument(inst s3.Queryable) {
	inst.SetSearchMetrics(s.sm)
	if a, ok := inst.(interface{ AttachRegistry(*obs.Registry) }); ok {
		a.AttachRegistry(s.reg)
	}
}

// Registry returns the process registry behind GET /metrics (s3serve adds
// its own instruments to it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("GET /extension", s.handleExtension)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /debug/traces", s.traces.Handler())
	return mux
}

// httpError pairs a status code with a client-facing message;
// retryAfter > 0 adds a Retry-After hint (seconds) for shed requests.
type httpError struct {
	status     int
	msg        string
	retryAfter int
}

// Shed reasons label s3_http_shed_total: the admission queue was full on
// arrival, or the queue wait ran out before a worker slot freed up.
const (
	shedQueueFull = "queue_full"
	shedTimeout   = "timeout"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, e *httpError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, map[string]string{"error": e.msg})
}

// searchRequest is the POST /search body.
type searchRequest struct {
	// Seeker is the querying user's URI.
	Seeker string `json:"seeker"`
	// Keywords are the conjunctive query keywords.
	Keywords []string `json:"keywords"`
	// K is the number of results (default 10).
	K int `json:"k,omitempty"`
	// Gamma is the social damping factor γ > 1 (default 1.5).
	Gamma float64 `json:"gamma,omitempty"`
	// Eta is the structural damping factor η ∈ (0,1) (default 0.8).
	Eta float64 `json:"eta,omitempty"`
	// BudgetMS caps wall-clock search time (any-time mode; uncached).
	BudgetMS int `json:"budget_ms,omitempty"`
	// MaxIterations caps exploration depth (any-time mode; uncached).
	MaxIterations int `json:"max_iterations,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

type searchResult struct {
	URI      string  `json:"uri"`
	Document string  `json:"document"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
}

type searchResponse struct {
	Results    []searchResult `json:"results"`
	Exact      bool           `json:"exact"`
	Iterations int            `json:"iterations"`
	ElapsedMS  float64        `json:"elapsed_ms"`
	Cached     bool           `json:"cached"`
	// Warm is true when the search resumed a proximity-cache checkpoint
	// instead of exploring from scratch.
	Warm    bool   `json:"warm,omitempty"`
	Version uint64 `json:"version"`
	// Degraded and ShardsServed are set only on ?partial=1 answers that
	// ran without full shard coverage: the answer is the top-k of the
	// listed shards, not of the whole corpus. Never cached.
	Degraded     bool  `json:"degraded,omitempty"`
	ShardsServed []int `json:"shards_served,omitempty"`
	// TraceID and Trace are set only on ?trace=1 responses: the span tree
	// of the search that produced this answer. Never cached.
	TraceID string        `json:"trace_id,omitempty"`
	Trace   *obs.SpanJSON `json:"trace,omitempty"`
}

// cacheKey canonicalises a request; the instance version makes stale
// entries unreachable even before the reload purge completes. Seeker and
// keywords are client-controlled strings, so each is length-prefixed —
// plain concatenation would let crafted values collide with a different
// user's personalized results.
func (r *searchRequest) cacheKey(version uint64) string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(version, 10))
	fmt.Fprintf(&b, "|%d:%s", len(r.Seeker), r.Seeker)
	for _, kw := range r.Keywords {
		fmt.Fprintf(&b, "|%d:%s", len(kw), kw)
	}
	fmt.Fprintf(&b, "|%d|%g|%g|%d|%d", r.K, r.Gamma, r.Eta, r.BudgetMS, r.MaxIterations)
	return b.String()
}

// cacheable reports whether the answer is safe to reuse: any-time
// requests stop on wall-clock or iteration budgets, so their answers are
// not reproducible and never enter the cache.
func (r *searchRequest) cacheable() bool {
	return !r.NoCache && r.BudgetMS == 0 && r.MaxIterations == 0
}

func (s *Server) handleSearch(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	// Honor a client-supplied X-Request-ID (so one id follows a request
	// through client logs, the slow-query log and /debug/traces), generate
	// one otherwise, and echo it on every response.
	rid := req.Header.Get("X-Request-ID")
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	wantTrace := req.URL.Query().Get("trace") == "1"
	// ?partial=1 opts into a degraded answer when shards are down. Like
	// tracing it bypasses the cache and coalescing: a degraded answer is
	// coverage-dependent, never safe to reuse or to hand to a request
	// that did not opt in.
	wantPartial := req.URL.Query().Get("partial") == "1"
	bypass := wantTrace || wantPartial

	var sr searchRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "invalid JSON body: " + err.Error()})
		return
	}
	if sr.Seeker == "" {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "missing seeker"})
		return
	}
	if len(sr.Keywords) == 0 {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "missing keywords"})
		return
	}
	if sr.K == 0 {
		sr.K = 10
	}
	if sr.K < 0 {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "k must be positive"})
		return
	}
	// Normalize omitted parameters to their engine defaults before keying,
	// so "gamma omitted" and "gamma":1.5 share one cache entry and
	// coalesce with each other.
	if sr.Gamma == 0 {
		sr.Gamma = 1.5
	}
	if sr.Eta == 0 {
		sr.Eta = 0.8
	}

	state := s.cur.Acquire()
	defer state.Release()
	if !state.Value.inst.HasUser(sr.Seeker) {
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown seeker %q", sr.Seeker)})
		return
	}

	// A ?trace=1 request exists to watch a real search run, so it bypasses
	// the result cache and coalescing entirely — a hit would return
	// instantly with nothing to trace. ?partial=1 bypasses for coverage
	// reasons (see above).
	key := sr.cacheKey(state.Version)
	if sr.cacheable() && !bypass {
		s.mu.Lock()
		if resp, ok := s.cache.get(key); ok {
			s.mu.Unlock()
			cached := *resp
			cached.Cached = true
			s.outcomes[outcomeCached].ObserveSince(t0)
			writeJSON(w, http.StatusOK, &cached)
			return
		}
		// Not cached: join an identical in-flight search if one exists,
		// otherwise become the leader for this key.
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			s.coalesced.Add(1)
			select {
			case <-c.done:
			case <-req.Context().Done():
				writeError(w, &httpError{status: http.StatusServiceUnavailable, msg: "client went away"})
				return
			}
			if c.err != nil {
				// The leader may have failed for reasons private to it —
				// typically its client disconnecting while queued. This
				// request's client is still here, so fall back to an
				// uncoalesced search instead of inheriting the failure.
				if c.err.status == http.StatusServiceUnavailable {
					resp, herr := s.observedSearch(req.Context(), state, &sr, rid, wantTrace, false)
					if herr != nil {
						writeError(w, herr)
						return
					}
					writeJSON(w, http.StatusOK, resp)
					return
				}
				writeError(w, c.err)
				return
			}
			resp := *c.resp
			resp.Cached = true
			s.outcomes[outcomeCoalesced].ObserveSince(t0)
			writeJSON(w, http.StatusOK, &resp)
			return
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		resp, herr := s.observedSearch(req.Context(), state, &sr, rid, wantTrace, false)
		c.resp, c.err = resp, herr
		s.mu.Lock()
		delete(s.inflight, key)
		if herr == nil && resp.Exact {
			// Cache a copy without the trace: retained span trees belong to
			// the ring, not to every future cache hit.
			clean := *resp
			clean.TraceID, clean.Trace = "", nil
			s.cache.put(key, sr, &clean)
		}
		s.mu.Unlock()
		close(c.done)

		if herr != nil {
			writeError(w, herr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	resp, herr := s.observedSearch(req.Context(), state, &sr, rid, wantTrace, wantPartial)
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// observedSearch wraps one engine call in the serving observability: it
// traces the search when the client asked (?trace=1) or the slow-query
// log needs a stage breakdown, feeds the per-outcome latency histogram,
// emits the slow-log line, and retains explicitly requested and slow
// traces in the /debug/traces ring. The returned response carries the
// span tree only for ?trace=1 requests.
func (s *Server) observedSearch(ctx context.Context, state *generation, sr *searchRequest, rid string, wantTrace, partial bool) (*searchResponse, *httpError) {
	var tr *s3.Trace
	if wantTrace || s.slow.Enabled() {
		tr = obs.NewTrace("search")
	}
	start := time.Now()
	resp, herr := s.runSearch(ctx, state, sr, tr, partial)
	elapsed := time.Since(start)
	if herr != nil {
		s.searchErrors.Inc()
		return nil, herr
	}
	outcome := outcomeCold
	if resp.Warm {
		outcome = outcomeWarm
	}
	s.outcomes[outcome].Observe(elapsed.Seconds())
	if tr != nil {
		tr.Finish()
		elapsed = tr.Root.Dur
		emitted := s.slow.Emit(elapsed, &obs.SlowRecord{
			RequestID: rid,
			TraceID:   obs.IDString(tr.ID),
			Seeker:    sr.Seeker,
			Keywords:  sr.Keywords,
			K:         sr.K,
			Outcome:   outcome,
			Rounds:    resp.Iterations,
			Shards:    len(state.Value.inst.Shards()),
			StagesMS:  obs.StagesMS(tr.Root),
		})
		if wantTrace || emitted {
			s.traces.Add(&obs.TraceRecord{
				TraceID:   obs.IDString(tr.ID),
				RequestID: rid,
				Seeker:    sr.Seeker,
				Keywords:  sr.Keywords,
				Start:     tr.Root.Start,
				ElapsedMS: float64(elapsed.Microseconds()) / 1000,
				Spans:     tr.JSON(),
			})
		}
		if wantTrace {
			resp.TraceID = obs.IDString(tr.ID)
			resp.Trace = tr.JSON()
		}
	}
	return resp, nil
}

// admit acquires a worker slot under the admission bounds, ending the
// queue span however the wait resolves. It returns nil with the slot
// held, or the 429/503 to send instead.
func (s *Server) admit(ctx context.Context, qsp *obs.Span) *httpError {
	defer qsp.End()
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	// Every worker slot is busy: queue, bounded in depth and in time.
	retry := 1
	if s.maxQueueWait > 0 {
		if secs := int((s.maxQueueWait + time.Second - 1) / time.Second); secs > retry {
			retry = secs
		}
	}
	if s.maxQueue > 0 && s.waiting.Load() >= s.maxQueue {
		s.shed[shedQueueFull].Inc()
		return &httpError{status: http.StatusTooManyRequests, msg: "server saturated: admission queue full", retryAfter: retry}
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	var timeout <-chan time.Time
	if s.maxQueueWait > 0 {
		tm := time.NewTimer(s.maxQueueWait)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-timeout:
		s.shed[shedTimeout].Inc()
		return &httpError{status: http.StatusTooManyRequests, msg: "server saturated: timed out waiting for a worker slot", retryAfter: retry}
	case <-ctx.Done():
		return &httpError{status: http.StatusServiceUnavailable, msg: "request cancelled while queued"}
	}
}

// runSearch executes one engine call under the worker-pool bound,
// recording into tr when non-nil (a "queue" span for the worker-pool
// wait, then whatever the engine records under the same root). Admission
// is deadline-aware: when every worker slot is busy, the request queues
// only if fewer than maxQueue others already wait, and only for up to
// maxQueueWait — past either bound it is shed with 429 and a Retry-After
// hint, because piling more work onto a saturated process makes every
// in-flight search slower without making any answer arrive sooner.
func (s *Server) runSearch(ctx context.Context, state *generation, sr *searchRequest, tr *s3.Trace, partial bool) (*searchResponse, *httpError) {
	qsp := tr.Span().StartChild("queue")
	if herr := s.admit(ctx, qsp); herr != nil {
		return nil, herr
	}
	defer func() { <-s.sem }()

	opts := []s3.Option{s3.WithK(sr.K), s3.WithContext(ctx)}
	if partial {
		opts = append(opts, s3.WithPartial())
	}
	if sr.Gamma != 0 {
		if sr.Gamma <= 1 {
			return nil, &httpError{status: http.StatusBadRequest, msg: "gamma must be > 1"}
		}
		opts = append(opts, s3.WithGamma(sr.Gamma))
	}
	if sr.Eta != 0 {
		if sr.Eta <= 0 || sr.Eta >= 1 {
			return nil, &httpError{status: http.StatusBadRequest, msg: "eta must be in (0,1)"}
		}
		opts = append(opts, s3.WithEta(sr.Eta))
	}
	if sr.BudgetMS > 0 {
		opts = append(opts, s3.WithBudget(time.Duration(sr.BudgetMS)*time.Millisecond))
	}
	if sr.MaxIterations > 0 {
		opts = append(opts, s3.WithMaxIterations(sr.MaxIterations))
	}
	if tr != nil {
		opts = append(opts, s3.WithTrace(tr))
	}

	s.searches.Add(1)
	results, info, err := state.Value.inst.SearchInfoed(sr.Seeker, sr.Keywords, opts...)
	if err != nil {
		if ctx.Err() != nil {
			// A 503 also sends coalesced followers, whose clients are still
			// there, to a search of their own.
			return nil, &httpError{status: http.StatusServiceUnavailable, msg: "client went away"}
		}
		return nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}
	resp := &searchResponse{
		Results:      make([]searchResult, 0, len(results)),
		Exact:        info.Exact,
		Iterations:   info.Iterations,
		ElapsedMS:    float64(info.Elapsed.Microseconds()) / 1000,
		Warm:         info.Warm,
		Version:      state.Version,
		Degraded:     info.Degraded,
		ShardsServed: info.ServedShards,
	}
	for _, r := range results {
		resp.Results = append(resp.Results, searchResult{
			URI: r.URI, Document: r.Document, Lower: r.Lower, Upper: r.Upper,
		})
	}
	return resp, nil
}

func (s *Server) handleExtension(w http.ResponseWriter, req *http.Request) {
	kw := req.URL.Query().Get("keyword")
	if kw == "" {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "missing keyword parameter"})
		return
	}
	state := s.cur.Acquire()
	ext := state.Value.inst.Extension(kw)
	state.Release()
	if ext == nil {
		ext = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"keyword": kw, "extension": ext})
}

// statsResponse is the GET /stats body.
type statsResponse struct {
	Instance s3.Stats  `json:"instance"`
	Version  uint64    `json:"version"`
	LoadedAt time.Time `json:"loaded_at"`
	// LoadMS is how long loading the served instance took (initial load
	// or the reload that produced it); MappedBytes is the size of the
	// memory mappings backing it (0 in copy mode). Together they are the
	// cold-start story of the serving generation.
	LoadMS      int64 `json:"load_ms"`
	MappedBytes int64 `json:"mapped_bytes"`
	UptimeMS    int64 `json:"uptime_ms"`
	// UptimeS duplicates the uptime in seconds and Generation the served
	// load generation (same value as Version), matching the
	// s3_uptime_seconds / s3_server_generation metric names so dashboards
	// and /stats consumers agree on vocabulary.
	UptimeS    float64          `json:"uptime_s"`
	Generation uint64           `json:"generation"`
	Workers    int              `json:"workers"`
	Searches   uint64           `json:"searches"`
	Reloads    uint64           `json:"reloads"`
	ShardCount int              `json:"shard_count"`
	Shards     []shardStatsJSON `json:"shards"`
	Cache      cacheStats       `json:"cache"`
	ProxCache  proxCacheStats   `json:"prox_cache"`
	// Distributed carries the coordinator's aggregated view (per-worker
	// statuses and per-shard counters) when the served instance is a
	// distributed coordinator; absent otherwise.
	Distributed any `json:"distributed,omitempty"`
}

// distributedStatsProvider is implemented by instances that front a
// worker fleet (the distributed coordinator): DistributedStats returns
// the aggregated per-worker view for /stats.
type distributedStatsProvider interface {
	DistributedStats() any
}

// proxCacheStats is the /stats view of the seeker-proximity checkpoint
// cache (the warm path under the result cache).
type proxCacheStats struct {
	Enabled   bool   `json:"enabled"`
	MaxBytes  int64  `json:"max_bytes"`
	Bytes     int64  `json:"bytes"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Stores    uint64 `json:"stores"`
	Rejected  uint64 `json:"rejected"`
	Warmed    uint64 `json:"warmed"`
}

// shardStatsJSON is one shard's row in /stats: its content counts plus
// the cumulative search and round-work counters. The shape is stable —
// {shard, documents, components, tags, searches, rounds} — and matches
// the rows a distributed worker exports, so a rebalancer can consume
// either side without translation.
type shardStatsJSON struct {
	Shard      int    `json:"shard"`
	Documents  int    `json:"documents"`
	Components int    `json:"components"`
	Tags       int    `json:"tags"`
	Searches   uint64 `json:"searches"`
	Rounds     uint64 `json:"rounds"`
}

type cacheStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Coalesced uint64 `json:"coalesced"`
	Warmed    uint64 `json:"warmed"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	state := s.cur.Acquire()
	defer state.Release()
	s.mu.Lock()
	cs := cacheStats{
		Capacity:  s.cache.cap,
		Size:      s.cache.len(),
		Hits:      s.cache.hits,
		Misses:    s.cache.misses,
		Evictions: s.cache.evictions,
		Coalesced: s.coalesced.Load(),
		Warmed:    s.warmed.Load(),
	}
	s.mu.Unlock()
	shards := state.Value.inst.Shards()
	rows := make([]shardStatsJSON, len(shards))
	for i, sh := range shards {
		rows[i] = shardStatsJSON{
			Shard:      i,
			Documents:  sh.Documents,
			Components: sh.Components,
			Tags:       sh.Tags,
			Searches:   sh.Searches,
			Rounds:     sh.Rounds,
		}
	}
	var distributed any
	if p, ok := state.Value.inst.(distributedStatsProvider); ok {
		distributed = p.DistributedStats()
	}
	var ps proxCacheStats
	if s.prox != nil {
		st := s.prox.Stats()
		ps = proxCacheStats{
			Enabled:   true,
			MaxBytes:  st.MaxBytes,
			Bytes:     st.Bytes,
			Entries:   st.Entries,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			Stores:    st.Stores,
			Rejected:  st.Rejected,
			Warmed:    st.Warmed,
		}
	}
	writeJSON(w, http.StatusOK, &statsResponse{
		Instance:    state.Value.inst.Stats(),
		Version:     state.Version,
		LoadedAt:    state.Value.loadedAt,
		LoadMS:      state.Value.loadMS,
		MappedBytes: state.Value.inst.MappedBytes(),
		UptimeMS:    time.Since(s.start).Milliseconds(),
		UptimeS:     time.Since(s.start).Seconds(),
		Generation:  state.Version,
		Workers:     cap(s.sem),
		Searches:    s.searches.Load(),
		Reloads:     s.reloads.Load(),
		ShardCount:  len(shards),
		Shards:      rows,
		Cache:       cs,
		ProxCache:   ps,
		Distributed: distributed,
	})
}

// SetDraining flips readiness: while draining, /healthz answers 503 so
// health-checked routers drain this replica before it shuts down.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, state := http.StatusOK, "serving"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":  state,
		"version": s.cur.Peek().Version,
	})
}

func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Loader == nil {
		writeError(w, &httpError{status: http.StatusNotImplemented, msg: "server has no reload source"})
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	loadStart := time.Now()
	inst, err := s.cfg.Loader()
	if err != nil {
		// The old instance keeps serving: a failed reload is not fatal.
		writeError(w, &httpError{status: http.StatusInternalServerError, msg: "reload failed: " + err.Error()})
		return
	}
	loaded := served{inst: inst, loadedAt: time.Now(), loadMS: time.Since(loadStart).Milliseconds()}
	// Remember what the cache held before the swap invalidates it: those
	// keys are the hot query set, worth paying for again up front.
	s.mu.Lock()
	hot := s.cache.requests()
	s.mu.Unlock()
	if s.prox != nil {
		// Proximity checkpoints are bound to the outgoing instance; drop
		// them and attach the cache to the incoming one before it serves.
		s.prox.Purge()
		inst.SetProxCache(s.prox)
	}
	s.instrument(inst)
	// Installing drops the server's reference to the outgoing generation:
	// in-flight requests still hold theirs, and the last one out closes
	// (unmaps) the old instance — the swapped-out snapshot file can be
	// unlinked or rewritten immediately.
	s.cur.Install(loaded)
	s.reloads.Add(1)
	next := s.cur.Acquire()
	defer next.Release()
	s.mu.Lock()
	s.cache.purge()
	s.mu.Unlock()
	warmed := s.warmCache(next, hot)
	proxWarmed := s.warmProximity(next, hot)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "reloaded",
		"version":     next.Version,
		"warmed":      warmed,
		"prox_warmed": proxWarmed,
		"instance":    inst.Stats(),
	})
}

// maxWarmReplay bounds how many cached queries a reload re-executes:
// replaying an entire large cache serially would hold up the /reload
// response (and reloadMu) for minutes, so only the hottest entries are
// paid for up front — the rest refill organically.
const maxWarmReplay = 256

// warmCache replays the pre-reload hot query set against the freshly
// swapped-in instance so the first clients after a reload keep hitting
// the cache. At most maxWarmReplay most-recently-used entries are
// replayed, oldest-first so the new cache ends up with the same recency
// order the old one had; queries whose seeker vanished from the new
// instance are skipped. Returns how many entries were warmed (also
// accumulated in the cache.warmed counter).
func (s *Server) warmCache(state *generation, hot []searchRequest) int {
	if len(hot) > maxWarmReplay {
		hot = hot[:maxWarmReplay]
	}
	warmed := 0
	for i := len(hot) - 1; i >= 0; i-- {
		sr := hot[i]
		if !state.Value.inst.HasUser(sr.Seeker) {
			continue
		}
		resp, herr := s.runSearch(context.Background(), state, &sr, nil, false)
		if herr != nil || !resp.Exact {
			continue
		}
		s.mu.Lock()
		s.cache.put(sr.cacheKey(state.Version), sr, resp)
		s.mu.Unlock()
		warmed++
	}
	s.warmed.Add(uint64(warmed))
	return warmed
}

// warmProxDepth is how deep a post-reload proximity seed explores: deep
// enough to cover the expensive early frontier growth of a typical search,
// shallow enough that warming many seekers stays cheap. Searches needing
// more depth continue from the seeded frontier.
const warmProxDepth = 8

// maxWarmSeekers bounds how many distinct seekers a reload pre-explores.
const maxWarmSeekers = 128

// warmProximity re-seeds the proximity cache after a reload for the
// hottest seekers (in result-cache recency order): queries the bounded
// result-cache replay re-executed have already re-published their
// frontiers, and this covers the remaining (seeker, γ, η) combinations —
// including the tail the replay cap skipped — so a result-cache miss
// right after a reload still starts from a warm frontier. Returns how
// many seeds were performed.
func (s *Server) warmProximity(state *generation, hot []searchRequest) int {
	if s.prox == nil {
		return 0
	}
	type proxTriple struct {
		seeker     string
		gamma, eta float64
	}
	seen := make(map[proxTriple]struct{})
	warmed := 0
	for _, sr := range hot {
		if len(seen) >= maxWarmSeekers {
			break
		}
		t := proxTriple{seeker: sr.Seeker, gamma: sr.Gamma, eta: sr.Eta}
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if _, seeded := state.Value.inst.WarmProximity(sr.Seeker, sr.Gamma, sr.Eta, warmProxDepth); seeded {
			warmed++
		}
	}
	return warmed
}

// Instance returns the currently served instance (tests and diagnostics).
func (s *Server) Instance() s3.Queryable { return s.cur.Peek().Value.inst }

// Version returns the current instance generation.
func (s *Server) Version() uint64 { return s.cur.Peek().Version }
