// Package server implements the s3serve query-serving subsystem: a
// long-lived HTTP front-end over a frozen S3 instance — a single
// snapshot-backed instance or a component-sharded shard set, both served
// through the s3.Queryable abstraction (a plain instance is the
// degenerate one-shard case, with no behavioural difference). The
// instance is held in a snap.Current so it can be hot-swapped
// (POST /reload) while searches are in flight, and a bounded worker pool
// caps the number of searches executing at once regardless of how many
// connections the HTTP layer accepts. Every search reaches the engine: an
// S3k answer is personal to its seeker, so what is worth reusing is the
// seeker's proximity exploration, which the proximity cache keeps.
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
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s3"
	"s3/internal/core"
	"s3/internal/dshard"
	"s3/internal/obs"
	"s3/internal/score"
	"s3/internal/snap"
)

// Config assembles a Server.
type Config struct {
	// Instance is the initially served instance: a *s3.Instance (a
	// snapshot or a shard set) or a *s3.DistributedInstance.
	Instance s3.Queryable
	// Loader re-loads the instance for POST /reload (typically re-reading
	// a snapshot file or shard set). nil disables reloading.
	Loader func() (s3.Queryable, error)
	// CacheSize is ignored: there is no result cache. It is kept until
	// ROADMAP 13(a) drops it from benchmark/probes.go.
	CacheSize int
	// ProxCacheBytes budgets the seeker-proximity checkpoint cache that
	// serves the warm path: a search whose seeker has a cached exploration
	// frontier resumes it instead of re-propagating the social graph. 0
	// picks the default (64 MiB), negative disables it.
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
	// SlowLog, when non-nil, receives one JSON line per search slower
	// than its threshold (searches are then always traced so the line can
	// carry a per-stage breakdown).
	SlowLog *obs.SlowLog
}

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
// version /search and /stats report).
type generation = snap.Generation[served]

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

	// prox is the seeker-proximity checkpoint cache, attached (and so
	// bound) to every served instance generation in turn. nil when
	// disabled.
	prox *s3.ProxCache

	// reloadMu serialises reloads so two concurrent POST /reload cannot
	// install different instances under the same version number.
	reloadMu sync.Mutex

	// draining flips /healthz readiness off ahead of a graceful shutdown:
	// external routers and coordinators stop picking this replica while
	// its in-flight requests finish (liveness stays green on /livez).
	draining atomic.Bool

	// lifetime counters
	searches atomic.Uint64
	reloads  atomic.Uint64

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
// produced.
const (
	outcomeWarm = "warm" // resumed a proximity checkpoint
	outcomeCold = "cold" // explored from scratch
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
	proxBytes := cfg.ProxCacheBytes
	if proxBytes == 0 {
		proxBytes = DefaultProxCacheBytes
	}
	reg := obs.NewRegistry()
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
		reg:          reg,
		sm:           obs.NewSearchMetrics(reg),
		traces:       obs.NewTraceRing(0),
		slow:         cfg.SlowLog,
	}
	s.outcomes = make(map[string]*obs.Histogram, 2)
	for _, o := range []string{outcomeWarm, outcomeCold} {
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

// registerFuncMetrics exposes the server's existing atomics and
// proximity-cache statistics through the registry without restructuring
// them.
func (s *Server) registerFuncMetrics() {
	r := s.reg
	r.GaugeFunc("s3_uptime_seconds", "Seconds since the serving process started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("s3_server_generation", "Load generation of the served instance (bumped by /reload).",
		func() float64 { return float64(s.cur.Peek().Version) })
	r.CounterFunc("s3_http_searches_total", "Engine searches executed.",
		func() float64 { return float64(s.searches.Load()) })
	r.CounterFunc("s3_reloads_total", "Successful instance reloads.",
		func() float64 { return float64(s.reloads.Load()) })
	r.CounterFunc("s3_slowlog_emitted_total", "Slow-query log lines written.",
		func() float64 { return float64(s.slow.Emitted()) })
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

// maxSearchBody caps a POST /search body: a query is a seeker, a few
// keywords and scalars, and a larger body is refused (413) before it is
// decoded.
const maxSearchBody = 1 << 20

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
	// BudgetMS caps wall-clock search time (any-time mode; 0 means no
	// cap, a negative value is refused).
	BudgetMS int `json:"budget_ms,omitempty"`
	// MaxIterations caps exploration depth (any-time mode; 0 means no
	// cap, a negative value is refused).
	MaxIterations int `json:"max_iterations,omitempty"`
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
	// Warm is true when the search resumed a proximity-cache checkpoint
	// instead of exploring from scratch.
	Warm    bool   `json:"warm,omitempty"`
	Version uint64 `json:"version"`
	// Degraded and ShardsServed are set only on ?partial=1 answers that
	// ran without full shard coverage: the answer is the top-k of the
	// listed shards, not of the whole corpus.
	Degraded     bool  `json:"degraded,omitempty"`
	ShardsServed []int `json:"shards_served,omitempty"`
	// TraceID and Trace are set only on ?trace=1 responses: the span tree
	// of the search that produced this answer.
	TraceID string        `json:"trace_id,omitempty"`
	Trace   *obs.SpanJSON `json:"trace,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, req *http.Request) {
	// Honor a client-supplied X-Request-ID (so one id follows a request
	// through client logs, the slow-query log and /debug/traces), generate
	// one otherwise, and echo it on every response.
	rid := req.Header.Get("X-Request-ID")
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	wantTrace := req.URL.Query().Get("trace") == "1"
	// ?partial=1 opts into a degraded answer when shards are down: a
	// degraded answer is coverage-dependent, so only a request that opted
	// in may get one.
	wantPartial := req.URL.Query().Get("partial") == "1"

	var sr searchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxSearchBody)).Decode(&sr); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			writeError(w, &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("search body exceeds %d bytes", maxSearchBody)})
			return
		}
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
		sr.K = core.DefaultOptions().K
	}
	if sr.K < 0 {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "k must be positive"})
		return
	}
	// Fill in omitted parameters with their engine defaults, so the check
	// below validates the values the search will run with. Refused before
	// admission: a request that can never succeed must not queue for a
	// slot, nor be told to retry when it is shed.
	params := score.DefaultParams()
	if sr.Gamma != 0 {
		params.Gamma = sr.Gamma
	}
	if sr.Eta != 0 {
		params.Eta = sr.Eta
	}
	if err := params.Validate(); err != nil {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	sr.Gamma, sr.Eta = params.Gamma, params.Eta
	if sr.BudgetMS < 0 || sr.MaxIterations < 0 {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "budget_ms and max_iterations must not be negative"})
		return
	}

	state := s.cur.Acquire()
	defer state.Release()
	if !state.Value.inst.HasUser(sr.Seeker) {
		writeError(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown seeker %q", sr.Seeker)})
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

	opts := []s3.Option{s3.WithK(sr.K), s3.WithGamma(sr.Gamma), s3.WithEta(sr.Eta), s3.WithContext(ctx)}
	if partial {
		opts = append(opts, s3.WithPartial())
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
		// A 503 says the request, not the query, failed: its client went
		// away or the fleet has no live replica.
		switch {
		case ctx.Err() != nil:
			return nil, &httpError{status: http.StatusServiceUnavailable, msg: "client went away"}
		case errors.Is(err, dshard.ErrUnavailable):
			return nil, &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
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
	ProxCache  proxCacheStats   `json:"prox_cache"`
	// Distributed carries the coordinator's view (its counters and
	// per-worker statuses) when the served instance is a distributed
	// coordinator; absent otherwise.
	Distributed any `json:"distributed,omitempty"`
}

// distributedStatsProvider is implemented by instances that front a
// worker fleet (the distributed coordinator): DistributedStats returns
// the per-worker view for /stats.
type distributedStatsProvider interface {
	DistributedStats() any
}

// proxCacheStats is the /stats view of the seeker-proximity checkpoint
// cache (the warm path).
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
}

// shardStatsJSON is one shard's row in /stats, its content counts:
// {shard, documents, components, tags}, the shape of a distributed
// worker's rows.
type shardStatsJSON struct {
	Shard      int `json:"shard"`
	Documents  int `json:"documents"`
	Components int `json:"components"`
	Tags       int `json:"tags"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	state := s.cur.Acquire()
	defer state.Release()
	shards := state.Value.inst.Shards()
	rows := make([]shardStatsJSON, len(shards))
	for i, sh := range shards {
		rows[i] = shardStatsJSON{
			Shard:      i,
			Documents:  sh.Documents,
			Components: sh.Components,
			Tags:       sh.Tags,
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
	if s.prox != nil {
		// Attaching the cache to the incoming instance before it serves
		// binds it there, which drops the outgoing instance's checkpoints
		// in the same step.
		inst.SetProxCache(s.prox)
	}
	s.instrument(inst)
	// Installing drops the server's reference to the outgoing generation:
	// in-flight requests still hold theirs, and the last one out closes
	// (unmaps) the old instance — the swapped-out snapshot file can be
	// unlinked or rewritten immediately.
	s.cur.Install(loaded)
	s.reloads.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "reloaded",
		"version":  s.cur.Peek().Version,
		"instance": inst.Stats(),
	})
}

// Instance returns the currently served instance (tests and diagnostics).
func (s *Server) Instance() s3.Queryable { return s.cur.Peek().Value.inst }

// Version returns the current instance generation.
func (s *Server) Version() uint64 { return s.cur.Peek().Version }
