// The scatter/gather coordinator: drives coordinated searches over
// per-shard worker replicas, with /healthz-driven membership, per-search
// retry onto surviving replicas, and per-worker /stats aggregation.
package dshard

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/obs"
)

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// WorkerURLs lists worker base URLs (e.g. "http://host:8081"). Which
	// shard each worker serves is discovered from its /healthz — replicas
	// are simply multiple URLs reporting the same shard.
	WorkerURLs []string
	// ShardCount and SetID pin the shard set the coordinator serves
	// (from its manifest); workers reporting anything else are not
	// members, so a half-rolled deployment can never mix answers from two
	// different sets into one search.
	ShardCount int
	SetID      uint64
	// Client is the HTTP client for rounds and probes; nil gets a default
	// with a 30s timeout over a keep-alive transport sized to the worker
	// fleet (see newTransport) — the membership probe then doubles as
	// connection pre-warming, so the first search never pays a dial.
	Client *http.Client
	// ProbeInterval paces the background membership refresh (default 5s).
	ProbeInterval time.Duration
	// SearchRetries is how many times a failed search is retried on other
	// replicas. Mid-search failover (re-begin + deterministic replay on a
	// replica) handles most worker deaths without reaching this loop; the
	// whole-search retry remains the backstop for failures failover cannot
	// absorb. Each failed attempt benches at least one worker, so the
	// default — one retry per configured worker — guarantees a search
	// survives any number of dead replicas as long as every shard keeps a
	// live one. Negative disables retries.
	SearchRetries int
	// RPCTimeout bounds each individual round-protocol RPC, and the wait
	// for each record of a round stream (0 picks 10s; negative disables
	// the bound, leaving only the client's own timeout). A timed-out RPC or
	// stalled stream is a transport error: the worker is benched and the
	// search fails over to a replica.
	RPCTimeout time.Duration
	// Registry, when non-nil, receives the coordinator's wire instruments
	// (per-endpoint RPC round-trip time and bytes) and search counters.
	Registry *obs.Registry
}

// Circuit breaker states, per worker. Closed admits searches; open
// rejects them until its (exponentially backed-off, jittered) window
// expires and a probe succeeds; half-open admits one trial search (or
// closes after two consecutive healthy probes, so an idle fleet still
// recovers without traffic).
const (
	brClosed = iota
	brHalfOpen
	brOpen
)

func breakerName(s int) string {
	switch s {
	case brHalfOpen:
		return "half-open"
	case brOpen:
		return "open"
	default:
		return "closed"
	}
}

// breakerThreshold is how many consecutive failures (search-RPC or probe)
// open a closed worker's breaker; any failure of a half-open worker
// re-opens it immediately.
const breakerThreshold = 3

// breakerMaxLevel caps the open window's exponential growth at
// ProbeInterval << (breakerMaxLevel-1) — with the default 5s interval,
// re-probes of a dead worker back off 5s → 10s → 20s → 40s and stay
// there.
const breakerMaxLevel = 4

// halfOpenProbes is how many consecutive healthy probes close a
// half-open breaker when no trial search arrives.
const halfOpenProbes = 2

// workerRef is one worker URL with its probed identity and health.
type workerRef struct {
	url string

	// probing guards against overlapping probes of one worker.
	probing atomic.Bool

	mu      sync.Mutex
	shard   int   // first hosted shard, for /stats; -1 until probed
	shards  []int // every shard the worker hosts
	healthy bool
	lastErr string
	stats   *WorkerStats

	// Circuit breaker state, under mu: consecutive failures, the state
	// machine, the exponential open-window level, when the open window
	// expires, whether the half-open trial token is out, how many
	// consecutive healthy probes the half-open state has seen, and when
	// the probe scheduler owes this worker its next probe.
	brFails   int
	brState   int
	brLevel   int
	openUntil time.Time
	trial     bool
	brProbes  int
	nextProbe time.Time
}

// WorkerStatus is the coordinator's aggregated view of one worker, as
// exposed through its /stats.
type WorkerStatus struct {
	URL     string       `json:"url"`
	Shard   int          `json:"shard"`
	Shards  []int        `json:"shards,omitempty"`
	Healthy bool         `json:"healthy"`
	Breaker string       `json:"breaker"`
	Error   string       `json:"error,omitempty"`
	Stats   *WorkerStats `json:"stats,omitempty"`
}

// Degradation describes a partial answer: the shards that had no healthy
// replica and were left out, and the shards the answer actually covers.
type Degradation struct {
	Lost   []int `json:"lost"`
	Served []int `json:"served"`
}

// Coordinator scatter/gathers lockstep rounds across worker replicas.
// It is safe for concurrent Search calls.
type Coordinator struct {
	cfg     CoordinatorConfig
	client  *http.Client
	workers []*workerRef
	rr      []atomic.Uint32 // per-shard replica rotation

	idBase uint64
	idSeq  atomic.Uint64

	searches  atomic.Uint64
	retries   atomic.Uint64
	failures  atomic.Uint64
	failovers atomic.Uint64

	metrics *rpcMetrics

	// streamCap, when positive, caps every session's round streams. Only
	// tests set it: regrouping rounds into streams must not change a byte.
	streamCap int
}

// NewCoordinator wires a coordinator; call Probe (or start Run) before
// searching so membership is known.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.ShardCount <= 0 {
		return nil, fmt.Errorf("dshard: coordinator needs a positive shard count")
	}
	if len(cfg.WorkerURLs) == 0 {
		return nil, fmt.Errorf("dshard: coordinator needs at least one worker URL")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: newTransport(len(cfg.WorkerURLs))}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 5 * time.Second
	}
	if cfg.SearchRetries == 0 {
		cfg.SearchRetries = len(cfg.WorkerURLs)
	} else if cfg.SearchRetries < 0 {
		cfg.SearchRetries = 0
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 10 * time.Second
	} else if cfg.RPCTimeout < 0 {
		cfg.RPCTimeout = 0
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		rr:     make([]atomic.Uint32, cfg.ShardCount),
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("dshard: seeding search ids: %w", err)
	}
	c.idBase = binary.LittleEndian.Uint64(seed[:])
	for _, u := range cfg.WorkerURLs {
		c.workers = append(c.workers, &workerRef{url: u, shard: -1})
	}
	c.AttachRegistry(cfg.Registry)
	return c, nil
}

func (c *Coordinator) nextSearchID() uint64 { return c.idBase + c.idSeq.Add(1) }

// AttachRegistry wires the coordinator's wire instruments (per-endpoint
// RPC round-trip time and bytes) and search counters into r; nil is a
// no-op. Attach before serving searches — the instrument set is read
// without synchronisation. Re-attaching after a reload rebinds the
// registry's func-backed counters to this coordinator.
func (c *Coordinator) AttachRegistry(r *obs.Registry) {
	if r == nil {
		return
	}
	c.metrics = newRPCMetrics(r)
	r.CounterFunc("s3_coord_searches_total", "Coordinated searches completed.",
		func() float64 { return float64(c.searches.Load()) })
	r.CounterFunc("s3_coord_retries_total", "Searches restarted on other replicas after a worker failure.",
		func() float64 { return float64(c.retries.Load()) })
	r.CounterFunc("s3_coord_failures_total", "Coordinated searches that failed after all retries.",
		func() float64 { return float64(c.failures.Load()) })
	r.CounterFunc("s3_coord_failover_total",
		"Mid-search failovers: a session re-begun on a replica and fast-forwarded through the consumed rounds.",
		func() float64 { return float64(c.failovers.Load()) })
	for _, w := range c.workers {
		r.GaugeFunc("s3_coord_breaker_state",
			"Per-worker circuit breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				return float64(w.brState)
			}, obs.L("worker", w.url))
	}
}

// probeWorker refreshes one worker's identity, health and stats.
func (c *Coordinator) probeWorker(ctx context.Context, w *workerRef) {
	var hb healthzBody
	code, err := c.getJSON(ctx, w.url+"/healthz", &hb)
	healthy := false
	var lastErr string
	shard := -1
	var hosted []int
	switch {
	case err != nil:
		lastErr = err.Error()
	case hb.Status != "serving" || code != http.StatusOK:
		lastErr = fmt.Sprintf("worker is %s", hb.Status)
		shard = hb.Shard
	case hb.Proto != protoVersion:
		// One protocol, no negotiation: a worker from another release is
		// never sent a frame it might misread.
		lastErr = fmt.Sprintf("worker speaks round protocol %d, coordinator speaks %d", hb.Proto, protoVersion)
	case hb.ShardCount != c.cfg.ShardCount:
		lastErr = fmt.Sprintf("worker serves a %d-shard set, coordinator has %d", hb.ShardCount, c.cfg.ShardCount)
	case hb.SetID != fmt.Sprintf("%016x", c.cfg.SetID):
		lastErr = fmt.Sprintf("worker serves set %s, coordinator has %016x", hb.SetID, c.cfg.SetID)
	case len(hb.Shards) == 0:
		lastErr = "worker reports no hosted shards"
	default:
		hosted = hb.Shards
		bad := -1
		for _, hs := range hosted {
			if hs < 0 || hs >= c.cfg.ShardCount {
				bad = hs
				break
			}
		}
		if bad >= 0 {
			lastErr = fmt.Sprintf("worker reports shard %d of %d", bad, c.cfg.ShardCount)
			hosted = nil
			break
		}
		healthy = true
		shard = hosted[0]
	}
	var st *WorkerStats
	if healthy {
		var ws WorkerStats
		if code, err := c.getJSON(ctx, w.url+"/stats", &ws); err == nil && code == http.StatusOK {
			st = &ws
		}
	}
	w.mu.Lock()
	w.shard, w.shards, w.healthy, w.lastErr = shard, hosted, healthy, lastErr
	if st != nil {
		w.stats = st
	}
	// Probe outcomes drive the circuit breaker alongside search RPCs: an
	// open worker's successful probe admits a trial (half-open), repeated
	// healthy probes close it even without search traffic, and probe
	// failures extend the open window's backoff.
	if healthy {
		switch w.brState {
		case brOpen:
			w.brState = brHalfOpen
			w.brProbes = 1
			w.trial = false
		case brHalfOpen:
			w.brProbes++
			if w.brProbes >= halfOpenProbes && !w.trial {
				w.brState = brClosed
				w.brLevel, w.brFails = 0, 0
			}
		default:
			w.brFails = 0
		}
	} else {
		w.brFails++
		if w.brState != brClosed || w.brFails >= breakerThreshold {
			c.openBreakerLocked(w)
		}
	}
	w.mu.Unlock()
}

// openBreakerLocked trips w's breaker (w.mu held): the open window grows
// exponentially with each consecutive trip, capped, with full jitter so
// coordinators that benched a worker together do not re-probe it
// together.
func (c *Coordinator) openBreakerLocked(w *workerRef) {
	w.brState = brOpen
	w.trial = false
	w.brProbes = 0
	if w.brLevel < breakerMaxLevel {
		w.brLevel++
	}
	d := c.cfg.ProbeInterval << (w.brLevel - 1)
	d = d/2 + time.Duration(mrand.Int64N(int64(d/2)+1))
	w.openUntil = time.Now().Add(d)
	w.nextProbe = w.openUntil
}

func (c *Coordinator) getJSON(ctx context.Context, url string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// Probe refreshes membership for every worker (concurrently) and reports
// whether every shard has at least one healthy replica.
func (c *Coordinator) Probe(ctx context.Context) error {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			c.probeWorker(ctx, w)
			c.scheduleProbe(w)
		}(w)
	}
	wg.Wait()
	covered := make([]bool, c.cfg.ShardCount)
	for _, w := range c.workers {
		w.mu.Lock()
		if w.healthy {
			for _, s := range w.shards {
				covered[s] = true
			}
		}
		w.mu.Unlock()
	}
	for s, ok := range covered {
		if !ok {
			return fmt.Errorf("dshard: no healthy worker for shard %d", s)
		}
	}
	return nil
}

// scheduleProbe sets when the Run loop owes w its next probe: the
// breaker's open window for open workers (already exponentially backed
// off and jittered), the probe interval ±25% jitter otherwise. The
// jitter de-synchronizes re-probes both across workers and across
// coordinators — without it, every coordinator that watched a worker die
// re-probes it on the same tick (and re-floods it on the same tick when
// it returns).
func (c *Coordinator) scheduleProbe(w *workerRef) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.brState == brOpen {
		w.nextProbe = w.openUntil
		return
	}
	base := c.cfg.ProbeInterval
	jitter := time.Duration(mrand.Int64N(int64(base)/2+1)) - base/4
	w.nextProbe = time.Now().Add(base + jitter)
}

// Run probes workers until the context ends — unhealthy workers rejoin
// automatically once their /healthz turns serving again (the second half
// of a /reload + drain roll). The loop ticks well below the probe
// interval and fires only the probes that are due, each on its own
// jittered schedule (scheduleProbe); a per-worker guard keeps a slow
// probe from stacking another behind it.
func (c *Coordinator) Run(ctx context.Context) {
	tick := c.cfg.ProbeInterval / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			for _, w := range c.workers {
				w.mu.Lock()
				due := !now.Before(w.nextProbe)
				w.mu.Unlock()
				if due && w.probing.CompareAndSwap(false, true) {
					go func(w *workerRef) {
						defer w.probing.Store(false)
						c.probeWorker(ctx, w)
						c.scheduleProbe(w)
					}(w)
				}
			}
		}
	}
}

// pickShard selects one admissible replica of a shard, skipping excluded
// workers: closed-breaker replicas first (rotating), then a half-open one
// whose trial token is free — the trial IS the probe request of the
// half-open state, and its outcome (noteWorkerSuccess / Failure) decides
// whether the breaker closes or re-opens.
func (c *Coordinator) pickShard(shard int, excluded map[*workerRef]bool) (*workerRef, error) {
	var closed, half []*workerRef
	for _, w := range c.workers {
		if excluded[w] {
			continue
		}
		w.mu.Lock()
		ok := w.healthy && slices.Contains(w.shards, shard)
		state := w.brState
		w.mu.Unlock()
		if !ok {
			continue
		}
		switch state {
		case brClosed:
			closed = append(closed, w)
		case brHalfOpen:
			half = append(half, w)
		}
	}
	if len(closed) > 0 {
		return closed[int(c.rr[shard].Add(1))%len(closed)], nil
	}
	for _, w := range half {
		w.mu.Lock()
		take := w.healthy && w.brState == brHalfOpen && !w.trial
		if take {
			w.trial = true
		}
		w.mu.Unlock()
		if take {
			return w, nil
		}
	}
	return nil, fmt.Errorf("dshard: no healthy worker for shard %d", shard)
}

// pickCover picks one replica per shard; shards with none admissible come
// back in lost instead of failing the pick (partial mode serves the
// rest).
func (c *Coordinator) pickCover(excluded map[*workerRef]bool) (refs []*workerRef, lost []int) {
	refs = make([]*workerRef, c.cfg.ShardCount)
	for s := range refs {
		if w, err := c.pickShard(s, excluded); err == nil {
			refs[s] = w
		} else {
			lost = append(lost, s)
		}
	}
	return refs, lost
}

// noteWorkerFailure benches a worker until the next successful probe and
// feeds its circuit breaker: breakerThreshold consecutive failures — or
// any failure of a half-open worker's trial — open it.
func (c *Coordinator) noteWorkerFailure(w *workerRef, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = false
	w.lastErr = err.Error()
	w.trial = false
	w.brFails++
	if w.brState != brClosed || w.brFails >= breakerThreshold {
		c.openBreakerLocked(w)
	}
}

// noteWorkerSuccess records a worker finishing a search cleanly: resets
// the failure streak and closes a half-open breaker (the trial passed).
func (c *Coordinator) noteWorkerSuccess(w *workerRef) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.brFails = 0
	w.trial = false
	if w.brState == brHalfOpen {
		w.brState = brClosed
		w.brLevel, w.brProbes = 0, 0
	}
}

// noteWorkerReleased hands back a half-open trial token without a
// verdict (the search failed elsewhere).
func (c *Coordinator) noteWorkerReleased(w *workerRef) {
	w.mu.Lock()
	w.trial = false
	w.mu.Unlock()
}

// Search runs one coordinated search across the shard set. A worker
// failure mid-search fails over to a replica: the session is re-begun
// there and fast-forwarded through the rounds already consumed (workers
// execute identical FP ops over the shared substrate, so the recovered
// search stays byte-identical to an undisturbed one). Only when failover
// exhausts a shard's replicas does the whole search restart on other
// workers, up to SearchRetries times; failing workers are benched (and
// their breakers fed) until a probe sees them healthy again. Answers are
// byte-identical to the in-process sharded engine over the same set.
func (c *Coordinator) Search(spec core.SearchSpec, copts core.CoordOptions) ([]core.CandMeta, core.Stats, error) {
	sel, stats, _, err := c.search(spec, copts, false)
	return sel, stats, err
}

// SearchPartial is Search under graceful degradation: when a shard has no
// admissible replica at all, the search proceeds over the surviving
// shards and the non-nil Degradation names what was lost and what was
// served. A fully covered search returns a nil Degradation (the answer
// is exact); a search with no surviving shards still errors.
func (c *Coordinator) SearchPartial(spec core.SearchSpec, copts core.CoordOptions) ([]core.CandMeta, core.Stats, *Degradation, error) {
	return c.search(spec, copts, true)
}

func (c *Coordinator) search(spec core.SearchSpec, copts core.CoordOptions, partial bool) ([]core.CandMeta, core.Stats, *Degradation, error) {
	copts.ForceParallel = true
	ctx := copts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	excluded := make(map[*workerRef]bool)
	var lastErr error
	var lastStats core.Stats
	for attempt := 0; attempt <= c.cfg.SearchRetries; attempt++ {
		refs, lost := c.pickCover(excluded)
		if len(lost) > 0 && (!partial || len(lost) == c.cfg.ShardCount) {
			err := fmt.Errorf("dshard: no healthy worker for shard %d", lost[0])
			if lastErr != nil {
				err = fmt.Errorf("%w (after: %v)", err, lastErr)
			}
			for _, ref := range refs {
				if ref != nil {
					c.noteWorkerReleased(ref) // hand back any trial tokens
				}
			}
			c.failures.Add(1)
			return nil, lastStats, nil, err
		}
		var served []int
		fxs := make([]*failoverExecutor, 0, len(refs))
		execs := make([]core.ShardExecutor, 0, len(refs))
		// Group the picked cover by worker: shards landing on the same
		// process share one session — one beginset, one round stream for
		// the whole group, one shared iterator worker-side — instead of one
		// session (and one stream) each.
		groups := make(map[*workerRef][]int)
		for s, ref := range refs {
			if ref != nil {
				groups[ref] = append(groups[ref], s)
			}
		}
		conns := make([]*hostShardView, c.cfg.ShardCount)
		for ref, group := range groups {
			for i, v := range c.connect(ctx, ref, group, copts) {
				conns[group[i]] = v
			}
		}
		for s, ref := range refs {
			if ref == nil {
				continue
			}
			served = append(served, s)
			fx := c.newFailoverExecutor(ctx, s, ref, conns[s], copts, excluded)
			fxs = append(fxs, fx)
			execs = append(execs, fx)
		}
		sel, stats, err := core.Coordinate(execs, spec, copts)
		transport := false
		for _, fx := range fxs {
			fx.settle(err)
			for w, werr := range fx.failed {
				transport = true
				excluded[w] = true
				_ = werr
			}
		}
		if err == nil {
			c.searches.Add(1)
			var deg *Degradation
			if len(lost) > 0 {
				deg = &Degradation{Lost: lost, Served: served}
			}
			return sel, stats, deg, nil
		}
		lastErr, lastStats = err, stats
		if ctx.Err() != nil {
			// The caller is gone; retrying for nobody burns worker rounds.
			c.failures.Add(1)
			return nil, stats, nil, err
		}
		if !transport {
			// A logic error (diverged executors, bad spec) will not go
			// away on other replicas.
			c.failures.Add(1)
			return nil, stats, nil, err
		}
		c.retries.Add(1)
	}
	c.failures.Add(1)
	return nil, lastStats, nil, lastErr
}

// CoordinatorStats is the aggregated serving view the coordinator's
// /stats exposes: its own counters plus the per-worker statuses (with
// each worker's cumulative per-shard search/round counts as probed).
type CoordinatorStats struct {
	Role       string           `json:"role"`
	ShardCount int              `json:"shard_count"`
	SetID      string           `json:"set_id"`
	Searches   uint64           `json:"searches"`
	Retries    uint64           `json:"retries"`
	Failures   uint64           `json:"failures"`
	Failovers  uint64           `json:"failovers"`
	Workers    []WorkerStatus   `json:"workers"`
	Shards     []WorkerShardRow `json:"shards"`
}

// Stats snapshots the coordinator's view: per-worker statuses from the
// last probe and per-shard rows aggregated across replicas (counter sums;
// content counts from any replica of the shard).
func (c *Coordinator) Stats() CoordinatorStats {
	out := CoordinatorStats{
		Role:       "coordinator",
		ShardCount: c.cfg.ShardCount,
		SetID:      fmt.Sprintf("%016x", c.cfg.SetID),
		Searches:   c.searches.Load(),
		Retries:    c.retries.Load(),
		Failures:   c.failures.Load(),
		Failovers:  c.failovers.Load(),
	}
	rows := make([]WorkerShardRow, c.cfg.ShardCount)
	for s := range rows {
		rows[s].Shard = s
	}
	for _, w := range c.workers {
		w.mu.Lock()
		ws := WorkerStatus{URL: w.url, Shard: w.shard, Shards: w.shards, Healthy: w.healthy,
			Breaker: breakerName(w.brState), Error: w.lastErr, Stats: w.stats}
		w.mu.Unlock()
		out.Workers = append(out.Workers, ws)
		if ws.Stats != nil {
			// A multi-shard worker reports one row per hosted shard; each
			// row is keyed by its own shard, not the worker's primary.
			for _, r := range ws.Stats.Shards {
				if r.Shard < 0 || r.Shard >= len(rows) {
					continue
				}
				rows[r.Shard].Documents = r.Documents
				rows[r.Shard].Components = r.Components
				rows[r.Shard].Tags = r.Tags
				rows[r.Shard].Searches += r.Searches
				rows[r.Shard].Rounds += r.Rounds
			}
		}
	}
	out.Shards = rows
	return out
}
