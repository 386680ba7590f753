// The shard worker: one process serving one or more shards of a set
// through the round protocol, plus the operational endpoints a
// coordinator and an external router need (/healthz readiness, /stats
// counters, /reload). Every session is a host session over a list of the
// worker's shards: all of them share a single proximity iterator, stepped
// once per round.
package dshard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/obs"
	"s3/internal/proxcache"
	"s3/internal/snap"
)

// Worker states, reported by /healthz. Readiness (HTTP 200) means
// "serving": a loading worker has no engine yet, and a draining worker
// wants routers and coordinators to stop sending new searches while its
// in-flight rounds finish. Liveness is the TCP listener itself.
const (
	StateLoading int32 = iota
	StateServing
	StateDraining
)

func stateName(s int32) string {
	switch s {
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	default:
		return "loading"
	}
}

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// ManifestPath and Shard select the shard-set manifest and this
	// worker's ordinal; Mode is the load mode (snap.LoadMmap maps the
	// sliced substrate).
	ManifestPath string
	Shard        int
	Mode         snap.LoadMode
	// Shards, when non-empty, lists ALL the shard ordinals this process
	// hosts (Shard is ignored); the worker serves them off one substrate
	// mapping, and a session shares one proximity iterator across every
	// hosted shard it covers. Empty means []int{Shard}.
	Shards []int
	// Verify selects when snapshot payload checksums run: snap.VerifyEager
	// (default) fails the Load on corruption; snap.VerifyLazy starts
	// serving as soon as the section tables parse and flips the worker
	// unhealthy if the background pass finds corruption.
	Verify snap.VerifyMode
	// Workers bounds per-search candidate-bound parallelism (0 = serial).
	Workers int
	// SessionTTL evicts abandoned searches (a crashed coordinator never
	// sends End); 0 picks the default 60s.
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open searches; 0 picks 1024.
	MaxSessions int
	// ProxCacheBytes budgets the worker's seeker-proximity checkpoint
	// cache: repeated seekers resume their recorded exploration frontier
	// instead of re-propagating from depth 0 (replay is bit-identical, so
	// distributed answers do not change). 0 picks the 64 MiB default;
	// negative disables the cache.
	ProxCacheBytes int64
	// Registry receives the worker's instruments (nil creates a private
	// one); the worker serves it at GET /metrics either way.
	Registry *obs.Registry
}

// DefaultProxCacheBytes is the worker's proximity-cache budget when the
// config leaves ProxCacheBytes zero (matches the serving layer).
const DefaultProxCacheBytes int64 = 64 << 20

// workerGen is one loaded generation of the shard, reference-counted so a
// reload unmaps the old snapshot only after its last in-flight search
// ends (the same discipline the serving layer uses).
type workerGen struct {
	ws *snap.WorkerSnapshot
	// engines holds one engine per hosted shard, in cfg.Shards order.
	engines  []*core.Engine
	version  uint64
	loadMS   int64
	loadedAt time.Time
	refs     atomic.Int64
}

func (g *workerGen) retain() bool {
	for {
		r := g.refs.Load()
		if r <= 0 {
			return false
		}
		if g.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (g *workerGen) release() {
	if g.refs.Add(-1) == 0 {
		_ = g.ws.Close()
	}
}

// session is one in-flight search: a host executor serving the shard list
// `shards` off one shared iterator, pinned to the generation it began on.
// Round records and finalize replies carry one RoundInfo per member. trace is
// non-nil when the coordinator propagated a trace id in beginset — every
// protocol call's span subtree is both returned on the wire and
// accumulated here for the worker's own /debug/traces ring.
type session struct {
	mu       sync.Mutex
	gen      *workerGen
	host     *core.HostExecutor
	shards   []int
	round    uint32
	lastUsed time.Time
	trace    *obs.Trace

	// deadline, when non-zero, is when the sweeper may abandon the
	// session even before the TTL — the coordinator shipped its search
	// budget in beginset, so anything past it is orphaned (a session whose
	// End was lost, a crashed coordinator's whole session).
	deadline time.Time
}

// Worker serves one shard of a set over the round protocol. Create with
// NewWorker, then Load (or let the HTTP layer report "loading" while a
// background Load runs).
type Worker struct {
	cfg WorkerConfig
	// shardIdx maps hosted shard ordinal → index in cfg.Shards (and in
	// every per-shard slice below).
	shardIdx map[int]int
	state    atomic.Int32
	cur      atomic.Pointer[workerGen]

	reloadMu sync.Mutex
	mu       sync.Mutex
	sessions map[uint64]*session

	start       time.Time
	searches    atomic.Uint64   // Begin calls accepted
	touched     []atomic.Uint64 // searches that matched components, per hosted shard
	rounds      []atomic.Uint64 // rounds that carried candidates, per hosted shard
	iterSteps   atomic.Uint64   // proximity-iterator steps actually executed
	rejected    atomic.Uint64   // begins refused (not serving / full)
	warmResumes atomic.Uint64   // Begins that resumed a cached frontier

	// prox caches seeker-proximity checkpoints across this worker's
	// searches (nil when disabled); bound to the served generation so a
	// reload purges and re-binds it.
	prox *proxcache.Cache

	reg        *obs.Registry
	rpcSeconds [epCount]*obs.Histogram
	traces     *obs.TraceRing

	// roundHook, when set (tests only), runs before a stream steps its next
	// round; false cuts the stream there, as a worker dying mid-stream would.
	roundHook atomic.Pointer[func(ctx context.Context, round uint32) bool]
}

// NewWorker returns a worker in the loading state; call Load to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Minute
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{cfg.Shard}
	}
	cfg.Shard = cfg.Shards[0]
	w := &Worker{
		cfg:      cfg,
		shardIdx: make(map[int]int, len(cfg.Shards)),
		sessions: make(map[uint64]*session),
		start:    time.Now(),
		reg:      cfg.Registry,
		traces:   obs.NewTraceRing(0),
		touched:  make([]atomic.Uint64, len(cfg.Shards)),
		rounds:   make([]atomic.Uint64, len(cfg.Shards)),
	}
	for i, s := range cfg.Shards {
		w.shardIdx[s] = i
	}
	proxBytes := cfg.ProxCacheBytes
	if proxBytes == 0 {
		proxBytes = DefaultProxCacheBytes
	}
	if proxBytes > 0 {
		w.prox = proxcache.New(proxBytes)
		w.reg.CounterFunc("s3_proxcache_hits_total", "Proximity-cache checkpoint hits.",
			func() float64 { return float64(w.prox.Stats().Hits) })
		w.reg.CounterFunc("s3_proxcache_misses_total", "Proximity-cache checkpoint misses.",
			func() float64 { return float64(w.prox.Stats().Misses) })
		w.reg.GaugeFunc("s3_proxcache_bytes", "Bytes of checkpoint state held by the proximity cache.",
			func() float64 { return float64(w.prox.Stats().Bytes) })
		w.reg.GaugeFunc("s3_proxcache_entries", "Checkpoints held by the proximity cache.",
			func() float64 { return float64(w.prox.Stats().Entries) })
	}
	w.reg.CounterFunc("s3_worker_warm_resumes_total",
		"Searches that resumed a cached proximity frontier instead of exploring from depth 0.",
		func() float64 { return float64(w.warmResumes.Load()) })
	for ep := 0; ep < epCount; ep++ {
		w.rpcSeconds[ep] = w.reg.Histogram("s3_shard_rpc_seconds",
			"Worker-side handling time of one round-protocol RPC, by endpoint.", nil,
			obs.L("endpoint", epNames[ep]))
	}
	w.reg.GaugeFunc("s3_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(w.start).Seconds() })
	w.reg.CounterFunc("s3_worker_searches_total", "Searches begun on this worker.",
		func() float64 { return float64(w.searches.Load()) })
	w.reg.CounterFunc("s3_worker_rejected_total", "Begin requests refused (not serving or session table full).",
		func() float64 { return float64(w.rejected.Load()) })
	w.reg.CounterFunc("s3_worker_shard_searches_total", "Searches that matched components on this worker's shards (summed over hosted shards).",
		func() float64 {
			var n uint64
			for i := range w.touched {
				n += w.touched[i].Load()
			}
			return float64(n)
		})
	w.reg.CounterFunc("s3_worker_shard_rounds_total", "Lockstep rounds that carried candidate work on this worker's shards (summed over hosted shards).",
		func() float64 {
			var n uint64
			for i := range w.rounds {
				n += w.rounds[i].Load()
			}
			return float64(n)
		})
	w.reg.CounterFunc("s3_worker_iter_steps_total",
		"Proximity-iterator steps actually executed: one per round per search, however many hosted shards the search covers.",
		func() float64 { return float64(w.iterSteps.Load()) })
	w.reg.GaugeFunc("s3_worker_sessions", "Open search sessions.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(len(w.sessions))
	})
	w.reg.GaugeFunc("s3_worker_generation", "Loaded snapshot generation (increments per reload).", func() float64 {
		if g := w.cur.Load(); g != nil {
			return float64(g.version)
		}
		return 0
	})
	w.reg.GaugeFunc("s3_worker_mapped_bytes", "Bytes memory-mapped by the served generation.", func() float64 {
		if g := w.acquire(); g != nil {
			defer g.release()
			return float64(g.ws.MappedBytes())
		}
		return 0
	})
	return w
}

// Load opens the manifest + shard and moves the worker to serving. Also
// the reload path: a successful re-open atomically replaces the served
// generation, and the old one is closed when its last search ends.
func (w *Worker) Load() error {
	w.reloadMu.Lock()
	defer w.reloadMu.Unlock()
	start := time.Now()
	ws, err := snap.OpenWorkerHost(w.cfg.ManifestPath, w.cfg.Shards, w.cfg.Mode, w.cfg.Verify)
	if err != nil {
		return err
	}
	old := w.cur.Load()
	version := uint64(1)
	if old != nil {
		version = old.version + 1
	}
	engines := make([]*core.Engine, len(ws.Instances))
	for i := range ws.Instances {
		engines[i] = core.NewEngine(ws.Instances[i], ws.Indexes[i])
	}
	gen := &workerGen{
		ws:       ws,
		engines:  engines,
		version:  version,
		loadMS:   time.Since(start).Milliseconds(),
		loadedAt: time.Now(),
	}
	gen.refs.Store(1)
	w.cur.Store(gen)
	if w.prox != nil {
		// Checkpoints are instance-pointer-identified: purge the old
		// generation's and bind Put to the new one, so a search still
		// running on the outgoing generation cannot re-populate the cache
		// with entries that would pin its mapping.
		w.prox.Purge()
		w.prox.Bind(ws.Instance)
	}
	if old != nil {
		old.release()
	}
	w.state.CompareAndSwap(StateLoading, StateServing)
	return nil
}

// SetDraining flips readiness off ahead of a graceful shutdown: /healthz
// turns 503 so coordinators stop picking this worker, while in-flight
// rounds keep answering.
func (w *Worker) SetDraining() { w.state.Store(StateDraining) }

// Drain blocks until every in-flight session has ended (its coordinator
// posted End, or the TTL/deadline sweeper evicted it) or the context
// expires. Call after SetDraining: new Begins are already refused, the
// HTTP listener keeps serving rounds for the sessions still open, so a
// SIGTERM'd worker finishes the searches it is part of instead of
// abandoning them to a mid-search failover.
func (w *Worker) Drain(ctx context.Context) error {
	for {
		w.mu.Lock()
		w.sweepSessions(time.Now())
		open := len(w.sessions)
		w.mu.Unlock()
		if open == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dshard: drain: %d sessions still open: %w", open, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// State returns the worker's lifecycle state.
func (w *Worker) State() int32 { return w.state.Load() }

// Shard returns the worker's shard ordinal.
func (w *Worker) Shard() int { return w.cfg.Shard }

// acquire returns the current generation with a reference held, or nil
// while loading.
func (w *Worker) acquire() *workerGen {
	for {
		g := w.cur.Load()
		if g == nil {
			return nil
		}
		if g.retain() {
			return g
		}
	}
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathBeginSet, w.handleBeginSet)
	mux.HandleFunc("POST "+pathRounds, w.handleRounds)
	mux.HandleFunc("POST "+pathFinalize, w.handleFinalize)
	mux.HandleFunc("POST "+pathEnd, w.handleEnd)
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("GET /stats", w.handleStats)
	mux.HandleFunc("POST /reload", w.handleReload)
	mux.Handle("GET /metrics", w.reg.Handler())
	mux.Handle("GET /debug/traces", w.traces.Handler())
	return mux
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeErr(rw http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(rw, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBody answers 200 with a body of records.
func writeBody(rw http.ResponseWriter, records []byte) {
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(records)
}

// readFrame reads a request body — one record — into a pooled buffer; the
// caller owns the returned frameBuf (its request decode copies everything
// it keeps) and must putFrame it when done. A record that fails its CRC or
// arrives cut short is transit corruption, not a malformed request: 422
// (not 400, which the client treats as a deterministic rejection every
// replica would repeat) so the coordinator retries or fails over.
func readFrame(rw http.ResponseWriter, req *http.Request) (*frameBuf, bool) {
	rr := recordReader{r: req.Body, fb: getFrame()}
	p, err := rr.next()
	if err == nil {
		err = rr.eof()
	}
	if err != nil {
		putFrame(rr.fb)
		writeErr(rw, http.StatusUnprocessableEntity, "reading request: %v", err)
		return nil, false
	}
	rr.fb.b = p
	return rr.fb, true
}

// closeSession releases a session's executor and generation, retaining
// its accumulated span tree (traced sessions) in the worker's ring.
func (w *Worker) closeSession(s *session) {
	s.mu.Lock()
	s.host.End()
	if s.trace != nil {
		s.trace.Finish()
		w.traces.Add(&obs.TraceRecord{
			TraceID:   obs.IDString(s.trace.TraceID()),
			Start:     s.trace.Root.Start,
			ElapsedMS: float64(s.trace.Root.Dur.Microseconds()) / 1000,
			Spans:     s.trace.JSON(),
		})
		s.trace = nil
	}
	s.mu.Unlock()
	s.gen.release()
}

// sweepSessions evicts searches idle past the TTL (their coordinator is
// gone) and searches past their coordinator-propagated deadline (the
// coordinator's budget expired — anything still open is an orphan); the
// caller must hold w.mu.
func (w *Worker) sweepSessions(now time.Time) {
	for id, s := range w.sessions {
		if now.Sub(s.lastUsed) > w.cfg.SessionTTL ||
			(!s.deadline.IsZero() && now.After(s.deadline)) {
			delete(w.sessions, id)
			go w.closeSession(s)
		}
	}
}

// hostCallSpan gathers the per-member span subtrees the executor recorded
// for the just-finished call under one wrapper (nil when untraced).
func hostCallSpan(h *core.HostExecutor, name string) *obs.Span {
	var wrap *obs.Span
	for _, sp := range h.TakeSpans() {
		if sp == nil {
			continue
		}
		if wrap == nil {
			wrap = obs.NewSpan(name)
		}
		wrap.Attach(sp)
	}
	if wrap != nil {
		wrap.End()
	}
	return wrap
}

// takeHostSpan is hostCallSpan keeping a reference in the session's own
// trace for the worker-side /debug/traces ring.
func (w *Worker) takeHostSpan(s *session, name string) *obs.Span {
	wrap := hostCallSpan(s.host, name)
	if wrap != nil && s.trace != nil {
		s.trace.Span().Attach(wrap)
	}
	return wrap
}

// handleBeginSet installs a session: one search covering a list of this
// worker's hosted shards, served off a single shared
// proximity iterator. Every shard in the list must be hosted here; a
// stale membership view gets 409 (a failover trigger), never a partial
// session.
func (w *Worker) handleBeginSet(rw http.ResponseWriter, req *http.Request) {
	defer w.rpcSeconds[epBeginSet].ObserveSince(time.Now())
	if w.state.Load() != StateServing {
		w.rejected.Add(1)
		writeErr(rw, http.StatusServiceUnavailable, "worker is %s", stateName(w.state.Load()))
		return
	}
	fb, ok := readFrame(rw, req)
	if !ok {
		return
	}
	r, err := decodeBeginSetRequest(fb.b)
	putFrame(fb)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "%v", err)
		return
	}
	gen := w.acquire()
	if gen == nil {
		w.rejected.Add(1)
		writeErr(rw, http.StatusServiceUnavailable, "worker is loading")
		return
	}
	if err := gen.ws.VerifyErr(); err != nil {
		gen.release()
		w.rejected.Add(1)
		writeErr(rw, http.StatusServiceUnavailable, "snapshot failed verification: %v", err)
		return
	}
	engines := make([]*core.Engine, len(r.shards))
	touched := make([]*atomic.Uint64, len(r.shards))
	rounds := make([]*atomic.Uint64, len(r.shards))
	for i, shard := range r.shards {
		idx, hosted := w.shardIdx[shard]
		if !hosted {
			gen.release()
			writeErr(rw, http.StatusConflict, "shard %d not hosted here (serving %v)", shard, w.cfg.Shards)
			return
		}
		engines[i] = gen.engines[idx]
		touched[i] = &w.touched[idx]
		rounds[i] = &w.rounds[idx]
	}
	host, err := core.NewHostExecutor(engines, w.cfg.Workers)
	if err != nil {
		gen.release()
		writeErr(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	host.WithProxCache(w.prox).
		WithStepCounter(&w.iterSteps).
		WithCounters(touched, rounds)
	s := &session{gen: gen, host: host, shards: r.shards, lastUsed: time.Now()}
	if r.traceID != 0 {
		host.WithTracing(true)
		s.trace = obs.NewTraceWithID(r.traceID, "worker.search")
	}
	if r.deadlineMicros != 0 {
		s.deadline = s.lastUsed.Add(time.Duration(r.deadlineMicros) * time.Microsecond)
	}
	w.mu.Lock()
	w.sweepSessions(s.lastUsed)
	if len(w.sessions) >= w.cfg.MaxSessions {
		w.mu.Unlock()
		gen.release()
		w.rejected.Add(1)
		writeErr(rw, http.StatusServiceUnavailable, "worker session table full (%d)", w.cfg.MaxSessions)
		return
	}
	if _, dup := w.sessions[r.searchID]; dup {
		w.mu.Unlock()
		gen.release()
		writeErr(rw, http.StatusConflict, "search %d already begun", r.searchID)
		return
	}
	w.sessions[r.searchID] = s
	w.mu.Unlock()

	infos, err := host.Begin(r.spec)
	if err != nil {
		w.dropSession(r.searchID)
		writeErr(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if host.ResumedDepth() > 0 {
		w.warmResumes.Add(1)
	}
	w.searches.Add(1)
	beginSpan := w.takeHostSpan(s, "exec.beginset")
	// The first round stream rides on the session open — unless nobody here
	// matched: such a host is stepped only if another host of the set has
	// matches, and until then it opens no iterator.
	limit := int(r.rounds)
	if !slices.ContainsFunc(infos, func(i core.BeginInfo) bool { return i.Matched > 0 }) {
		limit = 0
	}
	if err := req.Context().Err(); err != nil {
		// The coordinator is gone before a byte was written, so it never
		// learns this session opened: release it.
		w.dropSession(r.searchID)
		writeErr(rw, http.StatusServiceUnavailable, "%v", err)
		return
	}
	out := getFrame()
	defer putFrame(out)
	out.b = appendBeginRecord(out.b[:0], infos, beginSpan)
	s.mu.Lock()
	ended := w.streamRounds(req.Context(), rw, s, out, limit)
	s.mu.Unlock()
	if !ended {
		w.dropSession(r.searchID)
	}
}

// lookup fetches a session and bumps its liveness.
func (w *Worker) lookup(id uint64) *session {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.sessions[id]
	if s != nil {
		s.lastUsed = time.Now()
	}
	return s
}

func (w *Worker) dropSession(id uint64) {
	w.mu.Lock()
	s := w.sessions[id]
	delete(w.sessions, id)
	w.mu.Unlock()
	if s != nil {
		w.closeSession(s)
	}
}

// streamRounds steps the session up to limit lockstep rounds (s.mu held)
// and streams them: the one round loop behind a beginset's first stream
// and a rounds call, encoding into out, which holds what the stream has
// yet to write (a beginset's begin record). Each round advances every
// member off ONE iterator step and goes out — flushed — as one record, so
// the coordinator decides its stop on a round while the next one runs. The stream runs to its bound except where the
// coordinator will finalize: exhaustion and the precision floor end it,
// because finalize needs the session at exactly the consumed round, and
// the last record leaves with the trailer. A request whose context is done
// — the coordinator hung up at its stop round, timed out, or failed over —
// stops stepping at the next round boundary and gets no trailer: nobody is
// reading, and no coordinator resumes a session whose stream was cut, so
// the caller releases it (ended false) without waiting for an End.
func (w *Worker) streamRounds(ctx context.Context, rw http.ResponseWriter, s *session, out *frameBuf, limit int) (ended bool) {
	rw.Header().Set("Content-Type", "application/octet-stream")
	rc := http.NewResponseController(rw)
	n := 0
	for n < limit {
		if len(out.b) > 0 {
			if _, err := rw.Write(out.b); err != nil {
				return false
			}
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return false
			}
			out.b = out.b[:0]
		}
		if h := w.roundHook.Load(); h != nil && !(*h)(ctx, s.round+1) {
			return false
		}
		if ctx.Err() != nil {
			return false
		}
		infos, err := s.host.Round()
		if err != nil {
			return false
		}
		s.round++
		n++
		sp := hostCallSpan(s.host, "exec.round")
		if sp != nil && s.trace != nil {
			s.trace.Span().Attach(sp)
		}
		out.b = appendRoundRecord(out.b, infos, sp)
		if streamEnds(infos[0]) {
			break
		}
	}
	out.b = appendTrailer(out.b, n)
	_, err := rw.Write(out.b)
	return err == nil
}

// handleRounds streams the session's next lockstep rounds (see
// streamRounds) from the round the request names.
func (w *Worker) handleRounds(rw http.ResponseWriter, req *http.Request) {
	defer w.rpcSeconds[epRounds].ObserveSince(time.Now())
	fb, ok := readFrame(rw, req)
	if !ok {
		return
	}
	r, err := decodeRoundsRequest(fb.b)
	putFrame(fb)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "%v", err)
		return
	}
	s := w.lookup(r.searchID)
	if s == nil {
		writeErr(rw, http.StatusNotFound, "unknown search %d", r.searchID)
		return
	}
	s.mu.Lock()
	if r.from != s.round+1 {
		s.mu.Unlock()
		// Out-of-lockstep: a lost or replayed request must never silently
		// double-step the exploration.
		writeErr(rw, http.StatusConflict, "search %d at round %d, request says %d", r.searchID, s.round, r.from)
		return
	}
	out := getFrame()
	defer putFrame(out)
	out.b = out.b[:0]
	ended := w.streamRounds(req.Context(), rw, s, out, int(r.max))
	s.mu.Unlock()
	if !ended {
		w.dropSession(r.searchID)
	}
}

func (w *Worker) handleFinalize(rw http.ResponseWriter, req *http.Request) {
	defer w.rpcSeconds[epFinalize].ObserveSince(time.Now())
	fb, ok := readFrame(rw, req)
	if !ok {
		return
	}
	r, err := decodeRoundRequest(fb.b)
	putFrame(fb)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "%v", err)
		return
	}
	s := w.lookup(r.searchID)
	if s == nil {
		writeErr(rw, http.StatusNotFound, "unknown search %d", r.searchID)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	infos, err := s.host.Finalize()
	if err != nil {
		writeErr(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	out := getFrame()
	defer putFrame(out)
	e, start := openRecord(out.b[:0])
	e.b = appendHostInfosReply(e.b, infos)
	encodeSpanBlock(e, w.takeHostSpan(s, "exec.finalize"))
	out.b = sealRecord(e, start)
	writeBody(rw, out.b)
}

func (w *Worker) handleEnd(rw http.ResponseWriter, req *http.Request) {
	defer w.rpcSeconds[epEnd].ObserveSince(time.Now())
	fb, ok := readFrame(rw, req)
	if !ok {
		return
	}
	r, err := decodeRoundRequest(fb.b)
	putFrame(fb)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "%v", err)
		return
	}
	w.dropSession(r.searchID)
	writeBody(rw, nil)
}

// healthzBody is the /healthz JSON: everything a coordinator's membership
// probe needs to place the worker (shard ordinal, set identity) and to
// decide whether to route to it (status).
type healthzBody struct {
	Status string `json:"status"`
	Shard  int    `json:"shard"`
	// Shards lists every shard ordinal this process hosts; Shard is the
	// first of them.
	Shards     []int  `json:"shards,omitempty"`
	ShardCount int    `json:"shard_count"`
	SetID      string `json:"set_id"`
	Version    uint64 `json:"version"`
	// Proto advertises the round-protocol version this worker speaks;
	// the coordinator routes only to workers matching its own.
	Proto int `json:"proto,omitempty"`
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	// The coordinator probes /healthz on an interval, which makes it the
	// reliable heartbeat for evicting sessions whose coordinator died —
	// an idle worker may never see another Begin.
	w.mu.Lock()
	w.sweepSessions(time.Now())
	w.mu.Unlock()
	state := w.state.Load()
	body := healthzBody{Status: stateName(state), Shard: w.cfg.Shard, Shards: w.cfg.Shards, Proto: protoVersion}
	status := http.StatusServiceUnavailable
	verified := true
	if gen := w.acquire(); gen != nil {
		body.ShardCount = len(gen.ws.Layout.Shards)
		body.SetID = fmt.Sprintf("%016x", gen.ws.Layout.SetID)
		body.Version = gen.version
		if err := gen.ws.VerifyErr(); err != nil {
			// Deferred verification found corruption: report unready so the
			// coordinator routes away (open sessions keep answering — their
			// replicas will win every future pick).
			body.Status = "corrupt"
			verified = false
		}
		gen.release()
	}
	if state == StateServing && verified {
		status = http.StatusOK
	}
	writeJSON(rw, status, &body)
}

// WorkerShardRow is the per-shard counter row exported by /stats — the
// stable shape a rebalancer (and the coordinator's aggregation) consumes.
// It matches the serving layer's per-shard rows field for field.
type WorkerShardRow struct {
	Shard      int    `json:"shard"`
	Documents  int    `json:"documents"`
	Components int    `json:"components"`
	Tags       int    `json:"tags"`
	Searches   uint64 `json:"searches"`
	Rounds     uint64 `json:"rounds"`
}

// WorkerStats is the /stats body of a worker.
type WorkerStats struct {
	Role        string           `json:"role"`
	Status      string           `json:"status"`
	Shard       int              `json:"shard"`
	ShardCount  int              `json:"shard_count"`
	SetID       string           `json:"set_id"`
	Version     uint64           `json:"version"`
	LoadMS      int64            `json:"load_ms"`
	MappedBytes int64            `json:"mapped_bytes"`
	UptimeMS    int64            `json:"uptime_ms"`
	Sessions    int              `json:"sessions"`
	Searches    uint64           `json:"searches"`
	Rejected    uint64           `json:"rejected"`
	Shards      []WorkerShardRow `json:"shards"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	st := WorkerStats{
		Role:     "worker",
		Status:   stateName(w.state.Load()),
		Shard:    w.cfg.Shard,
		UptimeMS: time.Since(w.start).Milliseconds(),
		Searches: w.searches.Load(),
		Rejected: w.rejected.Load(),
	}
	w.mu.Lock()
	w.sweepSessions(time.Now())
	st.Sessions = len(w.sessions)
	w.mu.Unlock()
	if gen := w.acquire(); gen != nil {
		st.ShardCount = len(gen.ws.Layout.Shards)
		st.SetID = fmt.Sprintf("%016x", gen.ws.Layout.SetID)
		st.Version = gen.version
		st.LoadMS = gen.loadMS
		st.MappedBytes = gen.ws.MappedBytes()
		st.Shards = make([]WorkerShardRow, len(w.cfg.Shards))
		for i, shard := range w.cfg.Shards {
			is := gen.ws.Instances[i].Stats()
			st.Shards[i] = WorkerShardRow{
				Shard:      shard,
				Documents:  is.Documents,
				Components: is.Components,
				Tags:       is.Tags,
				Searches:   w.touched[i].Load(),
				Rounds:     w.rounds[i].Load(),
			}
		}
		gen.release()
	}
	return st
}

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, w.Stats())
}

func (w *Worker) handleReload(rw http.ResponseWriter, _ *http.Request) {
	if w.state.Load() == StateLoading {
		writeErr(rw, http.StatusServiceUnavailable, "worker is loading")
		return
	}
	start := time.Now()
	if err := w.Load(); err != nil {
		// The old generation keeps serving: a failed reload is not fatal.
		writeErr(rw, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	gen := w.acquire()
	defer gen.release()
	writeJSON(rw, http.StatusOK, map[string]any{
		"status":       "reloaded",
		"version":      gen.version,
		"reload_ms":    time.Since(start).Milliseconds(),
		"mapped_bytes": gen.ws.MappedBytes(),
	})
}
