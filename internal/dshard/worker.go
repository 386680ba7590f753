// The shard worker: one process holding one or more shards of a set and
// answering postings requests for them, plus the operational endpoints a
// coordinator and an external router need (/healthz readiness, /stats
// counters, /reload, /manifest). A worker runs no part of a search: the
// coordinator explores, the worker looks up events.
package dshard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/obs"
	"s3/internal/snap"
)

// Worker states, reported by /healthz. Readiness (HTTP 200) means
// "serving": a loading worker has no snapshot yet, and a draining worker
// wants routers and coordinators to stop sending it requests while the
// HTTP server shuts down. Liveness is the TCP listener itself.
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
	// ManifestPath selects the shard-set manifest and Shards every shard
	// ordinal this process hosts (at least one). Mode is the load mode:
	// snap.LoadMmap maps the hosted shard files, and nothing else.
	ManifestPath string
	Shards       []int
	Mode         snap.LoadMode
	// Verify is ignored: every open verifies before it returns, so a
	// corrupt shard file fails the Load. It is kept until ROADMAP 13(a)
	// drops the argument from benchmark/probes.go.
	Verify snap.VerifyMode
	// ProxCacheBytes is ignored: a worker explores nothing, so it has no
	// proximity checkpoints to cache. The field stays for callers that
	// still set it.
	ProxCacheBytes int64
}

// loadedShards is what a worker hot-swaps: the opened shards and how long
// the open took. The worker holds it in a snap.Current, so a reload
// unmaps the old shard files only after their last in-flight request ends
// (the same discipline the serving layer uses).
type loadedShards struct {
	ws     *snap.WorkerSnapshot
	loadMS int64
}

// Close closes the shards; their generation calls it once it retires.
func (l loadedShards) Close() error { return l.ws.Close() }

// Worker serves shards of a set to coordinators. Create with NewWorker,
// then Load (or let the HTTP layer report "loading" while a background
// Load runs).
type Worker struct {
	cfg WorkerConfig
	// shardIdx maps hosted shard ordinal → index in cfg.Shards (and in
	// the snapshot's Postings).
	shardIdx map[int]int
	state    atomic.Int32
	cur      snap.Current[loadedShards]
	reloadMu sync.Mutex

	start    time.Time
	searches atomic.Uint64 // postings requests answered
	touched  atomic.Uint64 // per hosted shard a request found events on, summed
	rejected atomic.Uint64 // requests refused while not serving

	reg        *obs.Registry
	rpcSeconds *obs.Histogram
	traces     *obs.TraceRing
}

// NewWorker returns a worker in the loading state; call Load to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{
		cfg:      cfg,
		shardIdx: make(map[int]int, len(cfg.Shards)),
		start:    time.Now(),
		reg:      obs.NewRegistry(),
		traces:   obs.NewTraceRing(0),
	}
	for i, s := range cfg.Shards {
		w.shardIdx[s] = i
	}
	w.rpcSeconds = w.reg.Histogram("s3_shard_rpc_seconds",
		"Worker-side handling time of one postings request.", nil, obs.L("endpoint", "postings"))
	w.reg.GaugeFunc("s3_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(w.start).Seconds() })
	w.reg.CounterFunc("s3_worker_searches_total", "Postings requests answered by this worker.",
		func() float64 { return float64(w.searches.Load()) })
	w.reg.CounterFunc("s3_worker_rejected_total", "Postings requests refused (not serving).",
		func() float64 { return float64(w.rejected.Load()) })
	w.reg.CounterFunc("s3_worker_shard_searches_total", "Postings requests that found events on this worker's shards (summed over hosted shards).",
		func() float64 { return float64(w.touched.Load()) })
	w.reg.GaugeFunc("s3_worker_generation", "Loaded snapshot generation (increments per reload).", func() float64 {
		if g := w.cur.Peek(); g != nil {
			return float64(g.Version)
		}
		return 0
	})
	w.reg.GaugeFunc("s3_worker_mapped_bytes", "Bytes memory-mapped by the served generation.", func() float64 {
		if g := w.cur.Acquire(); g != nil {
			defer g.Release()
			return float64(g.Value.ws.MappedBytes())
		}
		return 0
	})
	return w
}

// Load opens the manifest + shards and moves the worker to serving. Also
// the reload path: a successful re-open atomically replaces the served
// generation, and the old one is closed when its last request ends.
func (w *Worker) Load() error {
	w.reloadMu.Lock()
	defer w.reloadMu.Unlock()
	start := time.Now()
	ws, err := snap.OpenWorkerHost(w.cfg.ManifestPath, w.cfg.Shards, w.cfg.Mode, w.cfg.Verify)
	if err != nil {
		return err
	}
	w.cur.Install(loadedShards{ws, time.Since(start).Milliseconds()})
	w.state.CompareAndSwap(StateLoading, StateServing)
	return nil
}

// SetDraining flips readiness off ahead of a graceful shutdown: /healthz
// turns 503 so coordinators stop picking this worker; requests already in
// flight are the HTTP server's Shutdown to wait for.
func (w *Worker) SetDraining() { w.state.Store(StateDraining) }

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathPostings, w.handlePostings)
	mux.HandleFunc("GET "+pathManifest, w.handleManifest)
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

// handlePostings answers one postings request: for every requested shard
// (which must all be hosted here — a stale membership view gets 409, a
// failover trigger) and every requested keyword, the shard's events.
func (w *Worker) handlePostings(rw http.ResponseWriter, req *http.Request) {
	begun := time.Now()
	defer w.rpcSeconds.ObserveSince(begun)
	if w.state.Load() != StateServing {
		w.rejected.Add(1)
		writeErr(rw, http.StatusServiceUnavailable, "worker is %s", stateName(w.state.Load()))
		return
	}
	// A record that fails its CRC or arrives cut short is transit
	// corruption, not a malformed request: 422 (not 400, which the
	// coordinator treats as a rejection every replica would repeat), so the
	// coordinator fails over.
	p, err := readBody(req.Body)
	if err != nil {
		writeErr(rw, http.StatusUnprocessableEntity, "reading request: %v", err)
		return
	}
	r, err := decodePostingsRequest(p)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "%v", err)
		return
	}
	gen := w.cur.Acquire()
	if gen == nil {
		w.rejected.Add(1)
		writeErr(rw, http.StatusServiceUnavailable, "worker is loading")
		return
	}
	defer gen.Release()
	hosted := make([]int, len(r.shards))
	for i, shard := range r.shards {
		idx, ok := w.shardIdx[shard]
		if !ok {
			writeErr(rw, http.StatusConflict, "shard %d not hosted here (serving %v)", shard, w.cfg.Shards)
			return
		}
		hosted[i] = idx
	}
	e, start := openRecord(nil)
	events := 0
	for _, idx := range hosted {
		ix := &gen.Value.ws.Postings[idx]
		found := 0
		for _, k := range r.kws {
			evs := ix.Events(k)
			appendEvents(e, evs)
			found += len(evs)
		}
		if found > 0 {
			w.touched.Add(1)
		}
		events += found
	}
	w.searches.Add(1)
	if r.traceID != 0 {
		busy := time.Since(begun)
		e.u64(uint64(busy.Microseconds()))
		w.traces.Add(&obs.TraceRecord{
			TraceID:   obs.IDString(r.traceID),
			Start:     begun,
			ElapsedMS: float64(busy.Microseconds()) / 1000,
			Spans:     postingsSpan(begun, busy, r.shards, len(r.kws), events).JSON(begun),
		})
	}
	// One Write of a body whose length the header states: net/http sends
	// it unchunked, with no terminator to trail the record in a write of
	// its own.
	body := sealRecord(e, start)
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = rw.Write(body)
}

// handleManifest serves the manifest file, so a coordinator started
// without one can load the substrate its searches run over (it checks the
// set id; a rename mid-roll cannot mix two sets into one search).
func (w *Worker) handleManifest(rw http.ResponseWriter, req *http.Request) {
	f, err := os.Open(w.cfg.ManifestPath)
	if err != nil {
		writeErr(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	defer f.Close()
	rw.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(rw, req, "", time.Time{}, f)
}

// healthzBody is the /healthz JSON: everything a coordinator's membership
// probe needs to place the worker (shard ordinals, set identity) and to
// decide whether to route to it (status).
type healthzBody struct {
	Status string `json:"status"`
	// Shards lists every shard ordinal this process hosts.
	Shards     []int  `json:"shards,omitempty"`
	ShardCount int    `json:"shard_count"`
	SetID      string `json:"set_id"`
	Version    uint64 `json:"version"`
	// Proto advertises the protocol version this worker speaks; the
	// coordinator routes only to workers matching its own.
	Proto int `json:"proto,omitempty"`
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	state := w.state.Load()
	body := healthzBody{Status: stateName(state), Shards: w.cfg.Shards, Proto: protoVersion}
	status := http.StatusServiceUnavailable
	if gen := w.cur.Acquire(); gen != nil {
		body.ShardCount = len(gen.Value.ws.Layout.Shards)
		body.SetID = fmt.Sprintf("%016x", gen.Value.ws.Layout.SetID)
		body.Version = gen.Version
		gen.Release()
	}
	if state == StateServing {
		status = http.StatusOK
	}
	writeJSON(rw, status, &body)
}

// WorkerShardRow is one hosted shard's row in a worker's /stats: the
// content the shard's components hold, field for field the serving
// layer's per-shard row.
type WorkerShardRow struct {
	Shard      int `json:"shard"`
	Documents  int `json:"documents"`
	Components int `json:"components"`
	Tags       int `json:"tags"`
}

// WorkerStats is the /stats body of a worker.
type WorkerStats struct {
	Role        string           `json:"role"`
	Status      string           `json:"status"`
	ShardCount  int              `json:"shard_count"`
	SetID       string           `json:"set_id"`
	Version     uint64           `json:"version"`
	LoadMS      int64            `json:"load_ms"`
	MappedBytes int64            `json:"mapped_bytes"`
	UptimeMS    int64            `json:"uptime_ms"`
	Searches    uint64           `json:"searches"`
	Rejected    uint64           `json:"rejected"`
	Shards      []WorkerShardRow `json:"shards"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	st := WorkerStats{
		Role:     "worker",
		Status:   stateName(w.state.Load()),
		UptimeMS: time.Since(w.start).Milliseconds(),
		Searches: w.searches.Load(),
		Rejected: w.rejected.Load(),
	}
	if gen := w.cur.Acquire(); gen != nil {
		st.ShardCount = len(gen.Value.ws.Layout.Shards)
		st.SetID = fmt.Sprintf("%016x", gen.Value.ws.Layout.SetID)
		st.Version = gen.Version
		st.LoadMS = gen.Value.loadMS
		st.MappedBytes = gen.Value.ws.MappedBytes()
		st.Shards = make([]WorkerShardRow, len(w.cfg.Shards))
		for i, shard := range w.cfg.Shards {
			desc := gen.Value.ws.Layout.Shards[shard]
			st.Shards[i] = WorkerShardRow{
				Shard:      shard,
				Documents:  desc.Docs,
				Components: len(desc.Comps),
				Tags:       gen.Value.ws.Tags[i],
			}
		}
		gen.Release()
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
	gen := w.cur.Acquire()
	defer gen.Release()
	writeJSON(rw, http.StatusOK, map[string]any{
		"status":       "reloaded",
		"version":      gen.Version,
		"reload_ms":    time.Since(start).Milliseconds(),
		"mapped_bytes": gen.Value.ws.MappedBytes(),
	})
}
