// The coordinator: runs every search over the substrate it maps,
// gathering the query keywords' postings from per-shard worker replicas,
// with /healthz-driven membership, failover onto surviving replicas, and
// per-worker /stats aggregation.
package dshard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/snap"
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
	// Substrate and Layout are the set's base instance and shard table,
	// from the coordinator's copy of the manifest: searches explore the
	// substrate, and every event a worker sends is checked against the
	// layout. Set both or neither; when nil, Probe fetches the manifest
	// once from a healthy worker (GET /manifest) and requires its set id to
	// equal SetID.
	Substrate *graph.Instance
	Layout    *snap.Layout
	// Client is the HTTP client for fetches and probes; nil gets a default
	// with a 30s timeout over a keep-alive transport sized to the worker
	// fleet (see newTransport) — the membership probe then doubles as
	// connection pre-warming, so the first search never pays a dial.
	Client *http.Client
	// ProbeInterval paces the background membership refresh (default 5s).
	ProbeInterval time.Duration
	// RPCTimeout bounds each postings fetch, reply included (0 picks 10s;
	// negative disables the bound, leaving only the client's own timeout).
	// A timed-out fetch is a transport error: the worker is benched and its
	// shards are fetched from replicas.
	RPCTimeout time.Duration
	// Registry, when non-nil, receives the coordinator's wire instruments
	// (fetch round-trip time and bytes) and search counters.
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

// substrate is what searches run over: an engine over the set's base
// instance, whose iterator pool lives as long as the coordinator, and the
// layout's component → shard table.
type substrate struct {
	eng   *core.Engine
	owner []int32
}

func newSubstrate(in *graph.Instance, layout *snap.Layout) *substrate {
	return &substrate{eng: core.NewEngine(in, nil), owner: layout.Owner}
}

// check accepts the block a reply carries for shard only if every event
// names nodes of the instance, a known connection type, and a fragment in
// a component the layout assigns to that shard — a worker answering with
// another shard's events would otherwise duplicate candidates — and the
// events are strictly in canonical order, as the shard file stores them:
// a repeated event would otherwise count twice.
func (s *substrate) check(shard int, evs []index.Event) error {
	in := s.eng.Instance()
	n := graph.NID(in.NumNodes())
	for _, ev := range evs {
		switch {
		case ev.Frag < 0 || ev.Frag >= n:
			return fmt.Errorf("dshard: event fragment %d outside the instance's %d nodes", ev.Frag, n)
		case ev.Src != graph.NoNID && (ev.Src < 0 || ev.Src >= n):
			return fmt.Errorf("dshard: event source %d outside the instance's %d nodes", ev.Src, n)
		case ev.Type > index.CommentsOn:
			return fmt.Errorf("dshard: unknown connection type %d", ev.Type)
		}
		if c := in.CompOf(ev.Frag); c < 0 || s.owner[c] != int32(shard) {
			return fmt.Errorf("dshard: event on fragment %d (component %d) in shard %d's reply, which does not own it", ev.Frag, c, shard)
		}
	}
	if err := index.CheckOrder(in, evs); err != nil {
		return fmt.Errorf("dshard: shard %d's reply: %w", shard, err)
	}
	return nil
}

// Coordinator runs searches over its substrate with postings gathered
// from worker replicas. It is safe for concurrent Search calls.
type Coordinator struct {
	cfg     CoordinatorConfig
	client  *http.Client
	workers []*workerRef
	rr      []atomic.Uint32 // per-shard replica rotation

	sub   atomic.Pointer[substrate]
	subMu sync.Mutex // serialises loading sub from a worker

	searches  atomic.Uint64
	retries   atomic.Uint64
	failures  atomic.Uint64
	failovers atomic.Uint64
	// load counts, per shard, the searches that matched components there
	// and the rounds those searches ran.
	load *core.ShardLoad

	metrics *rpcMetrics
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
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 10 * time.Second
	} else if cfg.RPCTimeout < 0 {
		cfg.RPCTimeout = 0
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		rr:     make([]atomic.Uint32, cfg.ShardCount),
		load:   core.NewShardLoad(cfg.ShardCount),
	}
	if (cfg.Substrate == nil) != (cfg.Layout == nil) {
		return nil, fmt.Errorf("dshard: coordinator needs both a substrate and its layout, or neither")
	}
	if cfg.Substrate != nil {
		if err := c.checkLayout(cfg.Layout); err != nil {
			return nil, err
		}
		c.sub.Store(newSubstrate(cfg.Substrate, cfg.Layout))
	}
	for _, u := range cfg.WorkerURLs {
		c.workers = append(c.workers, &workerRef{url: u, shard: -1})
	}
	c.AttachRegistry(cfg.Registry)
	return c, nil
}

// checkLayout accepts the shard table of the set the coordinator serves.
func (c *Coordinator) checkLayout(l *snap.Layout) error {
	if l.SetID != c.cfg.SetID || len(l.Shards) != c.cfg.ShardCount {
		return fmt.Errorf("dshard: manifest of set %016x with %d shards, coordinator serves set %016x with %d",
			l.SetID, len(l.Shards), c.cfg.SetID, c.cfg.ShardCount)
	}
	return nil
}

// AttachRegistry wires the coordinator's wire instruments (fetch
// round-trip time and bytes) and search counters into r; nil is a
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
	r.CounterFunc("s3_coord_retries_total", "Rounds of postings fetches re-issued on other replicas after a worker failure.",
		func() float64 { return float64(c.retries.Load()) })
	r.CounterFunc("s3_coord_failures_total", "Coordinated searches that failed after all retries.",
		func() float64 { return float64(c.failures.Load()) })
	r.CounterFunc("s3_coord_failover_total",
		"Failovers: a shard's postings re-fetched from a replica after its worker failed.",
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
		lastErr = fmt.Sprintf("worker speaks protocol %d, coordinator speaks %d", hb.Proto, protoVersion)
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

// get fetches url, reading at most limit bytes of the body.
func (c *Coordinator) get(ctx context.Context, url string, limit int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp.StatusCode, body, err
}

func (c *Coordinator) getJSON(ctx context.Context, url string, v any) (int, error) {
	code, body, err := c.get(ctx, url, 1<<20)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	return code, err
}

// Probe refreshes membership for every worker (concurrently) and reports
// whether every shard has at least one healthy replica. A coordinator
// built without its substrate loads it here, from the first healthy
// worker that serves a manifest of its set.
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
	var subErr error
	if c.sub.Load() == nil {
		subErr = c.loadSubstrate(ctx)
	}
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
	return subErr
}

// maxManifestBytes caps the manifest a coordinator reads from a worker
// (one cut at the cap fails its checks).
const maxManifestBytes = 4 << 30

// loadSubstrate fetches the manifest from the healthy workers in turn and
// keeps the first one of the coordinator's set.
func (c *Coordinator) loadSubstrate(ctx context.Context) error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if c.sub.Load() != nil {
		return nil
	}
	err := errors.New("dshard: no healthy worker to load the manifest from")
	for _, w := range c.workers {
		w.mu.Lock()
		healthy := w.healthy
		w.mu.Unlock()
		if !healthy {
			continue
		}
		var man *snap.ManifestSnapshot
		if man, err = c.fetchManifest(ctx, w.url); err == nil {
			c.sub.Store(newSubstrate(man.Base, man.Layout))
			return nil
		}
	}
	return err
}

func (c *Coordinator) fetchManifest(ctx context.Context, base string) (*snap.ManifestSnapshot, error) {
	code, data, err := c.get(ctx, base+pathManifest, maxManifestBytes)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	var man *snap.ManifestSnapshot
	if err == nil {
		man, err = snap.ParseManifest(data)
	}
	if err == nil {
		err = c.checkLayout(man.Layout)
	}
	if err != nil {
		return nil, fmt.Errorf("dshard: %s%s: %w", base, pathManifest, err)
	}
	return man, nil
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

// Search runs one search across the shard set: it fetches the query
// keywords' postings from one replica of every shard — one request per
// host — and runs S3k over its substrate and those postings. A host whose
// fetch fails is benched (its breaker fed) until a probe sees it healthy
// again, and its shards are fetched from other replicas. Answers are
// byte-identical to the in-process shard set's over the same files.
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
	if copts.Start.IsZero() {
		copts.Start = time.Now() // the budget covers the fetch too
	}
	sel, stats, deg, err := c.run(spec, copts, partial)
	if err != nil {
		c.failures.Add(1)
		return nil, stats, nil, err
	}
	c.searches.Add(1)
	return sel, stats, deg, nil
}

func (c *Coordinator) run(spec core.SearchSpec, copts core.CoordOptions, partial bool) ([]core.CandMeta, core.Stats, *Degradation, error) {
	sub := c.sub.Load()
	if sub == nil {
		return nil, core.Stats{}, nil, errors.New("dshard: no substrate: no healthy worker has served the manifest yet")
	}
	ctx := copts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	kws := queryKeywords(spec.Groups)
	if len(kws) > maxKeywords {
		return nil, core.Stats{}, nil, fmt.Errorf("dshard: query of %d keywords (cap %d)", len(kws), maxKeywords)
	}
	span := copts.Trace.Span().StartChild("fetch")
	parts, served, lost, err := c.gather(ctx, sub, kws, copts.Trace.TraceID(), span, partial)
	span.End()
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	ix, err := index.Merge(sub.eng.Instance(), parts)
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	x := core.NewShardExecutor(sub.eng.WithIndex(ix), 0).WithTracing(copts.Trace != nil)
	sel, stats, err := core.Coordinate([]core.ShardExecutor{x}, spec, copts)
	if err != nil {
		return nil, stats, nil, err
	}
	c.load.Add(sub.owner, x.Matched(), stats.Iterations)
	var deg *Degradation
	if len(lost) > 0 {
		deg = &Degradation{Lost: lost, Served: served}
	}
	return sel, stats, deg, nil
}

// hostFetch is one request of a gather: a worker, the shards it was
// picked for and, once fetched, their postings.
type hostFetch struct {
	ref    *workerRef
	shards []int
	parts  []index.Flat
	err    error
}

// gather fetches the postings of kws on every shard — one concurrent
// request per host of the cover — and re-fetches the shards of a host
// whose request failed from their other replicas, at most once per
// configured worker: every failed fetch benches its worker, so that bound
// lets a search survive any number of dead replicas as long as every
// shard keeps a live one. It returns the postings of every shard served,
// one index.Flat each, the served shards and, in partial mode, the shards
// left without a replica.
func (c *Coordinator) gather(ctx context.Context, sub *substrate, kws []dict.ID, traceID uint64, span *obs.Span, partial bool) (parts []index.Flat, served, lost []int, err error) {
	refs, lost := c.pickCover(nil)
	if len(lost) > 0 && (!partial || len(lost) == c.cfg.ShardCount) {
		c.release(refs)
		return nil, nil, nil, fmt.Errorf("dshard: no healthy worker for shard %d", lost[0])
	}
	excluded := make(map[*workerRef]bool)
	var lastErr error
	for attempt := 0; ; attempt++ {
		var hosts []*hostFetch
		byRef := make(map[*workerRef]*hostFetch)
		for s, ref := range refs {
			if ref == nil {
				continue
			}
			if byRef[ref] == nil {
				byRef[ref] = &hostFetch{ref: ref}
				hosts = append(hosts, byRef[ref])
			}
			byRef[ref].shards = append(byRef[ref].shards, s)
		}
		var wg sync.WaitGroup
		for _, h := range hosts {
			sp := span.StartChild("host")
			if sp != nil {
				sp.SetAttr("worker", h.ref.url)
				sp.SetAttr("shards", fmt.Sprint(h.shards))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var wsp *obs.Span
				h.parts, wsp, h.err = c.fetch(ctx, h.ref.url, postingsRequest{traceID: traceID, shards: h.shards, kws: kws}, sub.check)
				sp.Attach(wsp)
				sp.End()
			}()
		}
		wg.Wait()
		refs = make([]*workerRef, c.cfg.ShardCount)
		var failed []int
		var fatal error
		for _, h := range hosts {
			switch {
			case h.err == nil:
				c.noteWorkerSuccess(h.ref)
				parts = append(parts, h.parts...)
				served = append(served, h.shards...)
			case isFatal(ctx, h.err):
				c.noteWorkerReleased(h.ref)
				if fatal == nil {
					fatal = h.err
				}
			default:
				c.noteWorkerFailure(h.ref, h.err)
				excluded[h.ref] = true
				lastErr = h.err
				failed = append(failed, h.shards...)
			}
		}
		if fatal != nil {
			return nil, nil, nil, fatal
		}
		if len(failed) == 0 {
			break
		}
		if attempt == len(c.workers) {
			return nil, nil, nil, fmt.Errorf("%w (after %d retries)", lastErr, attempt)
		}
		c.retries.Add(1)
		for _, s := range failed {
			ref, err := c.pickShard(s, excluded)
			if err != nil {
				if !partial {
					c.release(refs)
					return nil, nil, nil, fmt.Errorf("%w (after: %v)", err, lastErr)
				}
				lost = append(lost, s)
				continue
			}
			refs[s] = ref
			c.failovers.Add(1)
		}
	}
	if len(served) == 0 {
		return nil, nil, nil, fmt.Errorf("dshard: no healthy worker for any shard (after: %v)", lastErr)
	}
	slices.Sort(served)
	slices.Sort(lost)
	return parts, served, lost, nil
}

// release hands back the half-open trial tokens of picked workers that
// will not be asked.
func (c *Coordinator) release(refs []*workerRef) {
	for _, ref := range refs {
		if ref != nil {
			c.noteWorkerReleased(ref)
		}
	}
}

// CoordinatorStats is the aggregated serving view the coordinator's
// /stats exposes: its own counters plus the per-worker statuses and
// per-shard rows.
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
// last probe and per-shard rows — content counts from any replica of the
// shard, search and round counts from the searches this coordinator ran.
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
		rows[s].Searches, rows[s].Rounds = c.load.Shard(s)
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
			}
		}
	}
	out.Shards = rows
	return out
}
