// The coordinator: runs every search over the substrate it maps,
// gathering the query keywords' postings from per-shard worker replicas,
// with /healthz-driven membership (a worker is serving or benched) and
// failover onto surviving replicas.
package dshard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/score"
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
}

// ErrUnavailable is wrapped by every error that says a search found no
// live replica for some shard, or no substrate to run over yet: the
// fleet, not the query, is at fault, so retrying later may succeed.
var ErrUnavailable = errors.New("dshard: no healthy worker")

// probeInterval paces each worker's membership probe, ±25% jitter.
const probeInterval = 5 * time.Second

// rpcTimeout bounds each postings fetch, reply included. A timed-out
// fetch is a transport error: the worker is benched and its shards are
// fetched from replicas.
const rpcTimeout = 10 * time.Second

// workerRef is one worker URL with its probed identity and health: a
// worker is serving (healthy, routed to) or benched (a failed fetch or
// probe, lastErr saying why) until its next healthy probe.
type workerRef struct {
	url string

	mu      sync.Mutex
	shards  []int // every shard the worker hosts, as last probed
	healthy bool
	lastErr string
}

// WorkerStatus is the coordinator's view of one worker, as exposed
// through its /stats: what the worker's last /healthz probe said.
type WorkerStatus struct {
	URL     string `json:"url"`
	Shards  []int  `json:"shards,omitempty"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
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
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		rr:     make([]atomic.Uint32, cfg.ShardCount),
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
		c.workers = append(c.workers, &workerRef{url: u})
	}
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
		r.GaugeFunc("s3_coord_worker_healthy",
			"Per-worker membership: 1 routed to, 0 benched until a healthy probe.",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				if w.healthy {
					return 1
				}
				return 0
			}, obs.L("worker", w.url))
	}
}

// probeWorker refreshes one worker's identity and health from its
// /healthz.
func (c *Coordinator) probeWorker(ctx context.Context, w *workerRef) {
	var hb healthzBody
	code, err := c.getJSON(ctx, w.url+"/healthz", &hb)
	var lastErr string
	switch {
	case err != nil:
		lastErr = err.Error()
	case hb.Status != "serving" || code != http.StatusOK:
		lastErr = fmt.Sprintf("worker is %s", hb.Status)
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
		for _, hs := range hb.Shards {
			if hs < 0 || hs >= c.cfg.ShardCount {
				lastErr = fmt.Sprintf("worker reports shard %d of %d", hs, c.cfg.ShardCount)
				break
			}
		}
	}
	w.mu.Lock()
	// Whatever the verdict, /stats lists the shards the worker reported;
	// only a healthy worker's are routed to.
	w.shards, w.healthy, w.lastErr = hb.Shards, err == nil && lastErr == "", lastErr
	w.mu.Unlock()
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
			return fmt.Errorf("%w for shard %d", ErrUnavailable, s)
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

// probeDelay draws the wait before a worker's next probe: the probe
// interval ±25%, so probes stay spread across workers and coordinators
// instead of every coordinator that watched a worker die re-probing it,
// and re-flooding it once it returns, on the same tick.
func probeDelay() time.Duration {
	return probeInterval*3/4 + time.Duration(mrand.Int64N(int64(probeInterval/2)+1))
}

// Run probes every worker on a loop of its own until the context ends,
// each loop sleeping probeDelay between probes; a benched worker rejoins
// on its first healthy probe (the second half of a /reload + drain roll).
// Run returns once every loop has.
func (c *Coordinator) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTimer(probeDelay())
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				c.probeWorker(ctx, w)
				t.Reset(probeDelay())
			}
		}()
	}
	wg.Wait()
}

// pickShard rotates among the healthy replicas of a shard, skipping
// excluded workers.
func (c *Coordinator) pickShard(shard int, excluded map[*workerRef]bool) (*workerRef, error) {
	var live []*workerRef
	for _, w := range c.workers {
		if excluded[w] {
			continue
		}
		w.mu.Lock()
		ok := w.healthy && slices.Contains(w.shards, shard)
		w.mu.Unlock()
		if ok {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("%w for shard %d", ErrUnavailable, shard)
	}
	return live[int(c.rr[shard].Add(1))%len(live)], nil
}

// pickCover picks one replica per shard; shards with none healthy come
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

// bench takes a worker whose fetch failed out of routing until its next
// healthy probe.
func (w *workerRef) bench(err error) {
	w.mu.Lock()
	w.healthy = false
	w.lastErr = err.Error()
	w.mu.Unlock()
}

// Search runs one search across the shard set: it fetches the query
// keywords' postings from one replica of every shard — one request per
// host — and runs S3k over its substrate and those postings. A host whose
// fetch fails is benched until a probe sees it healthy again, and its
// shards are fetched from other replicas. Answers are byte-identical to
// the in-process shard set's over the same files.
func (c *Coordinator) Search(spec core.SearchSpec, copts core.CoordOptions) ([]core.CandMeta, core.Stats, error) {
	sel, stats, _, err := c.search(spec, copts, false)
	return sel, stats, err
}

// SearchPartial is Search under graceful degradation: when a shard has no
// healthy replica at all, the search proceeds over the surviving
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
		return nil, core.Stats{}, nil, fmt.Errorf("%w has served the manifest yet (no substrate)", ErrUnavailable)
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
	it := sub.eng.Explore(spec.Seeker, spec.Params)
	stop := explore(ctx, it, copts.MaxIterations, span)
	parts, served, lost, err := c.gather(ctx, sub, kws, copts.Trace.TraceID(), span, partial)
	stop()
	span.End()
	var ix *index.Index
	if err == nil {
		ix, err = index.Merge(sub.eng.Instance(), parts)
	}
	if err != nil {
		drop(sub.eng, it)
		return nil, core.Stats{}, nil, err
	}
	sel, stats, err := sub.eng.WithIndex(ix).Run(spec, copts, nil, it)
	if err != nil {
		return nil, stats, nil, err
	}
	var deg *Degradation
	if len(lost) > 0 {
		deg = &Degradation{Lost: lost, Served: served}
	}
	return sel, stats, deg, nil
}

// exploreCap bounds how deep a search's proximity exploration is stepped
// while its postings are fetched: 16 is the median stop round of a
// 400-query cold twitter battery (mean 15.5, p90 20, p99 25). A deeper
// cap records layers, ≈ 0.1 MB each at twitter scale 1, that most
// searches never replay.
const exploreCap = 16

// drop returns the iterator of an explorer whose search never ran to the
// engine's pool; a variable so that a test can watch it happen.
var drop = (*core.Engine).Drop

// explore steps it, a search's iterator from Engine.Explore, on its own
// goroutine while the request goroutine fetches the postings: the
// exploration depends only on the seeker and the substrate, so the rounds
// the search will replay ride the round trip instead of following it. It
// steps until ctx ends, the exploration is done, or it is exploreCap deep
// (maxIterations deep when that is set and less), yielding between steps
// so that the fetch's own goroutines are not kept waiting for a processor.
// The returned stop ends the stepping, waits for the goroutine to leave
// the iterator and records the depth reached on an "explore" child of
// span. A nil it (a spec the engine cannot explore, which the search then
// reports) is not stepped.
func explore(ctx context.Context, it *score.Iterator, maxIterations int, span *obs.Span) (stop func()) {
	if it == nil {
		return func() {}
	}
	depth := exploreCap
	if maxIterations > 0 {
		depth = min(depth, maxIterations)
	}
	sp := span.StartChild("explore")
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it.N() < depth && !it.Done() && ctx.Err() == nil {
			it.Step()
			runtime.Gosched()
		}
	}()
	return func() {
		cancel()
		<-done
		sp.SetInt("depth", int64(it.N()))
		sp.End()
	}
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
// whose request failed from their other replicas: every failed fetch
// benches its worker for the rest of the search, so a search survives any
// number of dead replicas as long as every shard keeps a live one. It
// returns the postings of every shard served, one index.Flat each, the
// served shards and, in partial mode, the shards left without a replica.
func (c *Coordinator) gather(ctx context.Context, sub *substrate, kws []dict.ID, traceID uint64, span *obs.Span, partial bool) (parts []index.Flat, served, lost []int, err error) {
	refs, lost := c.pickCover(nil)
	if len(lost) > 0 && (!partial || len(lost) == c.cfg.ShardCount) {
		return nil, nil, nil, fmt.Errorf("%w for shard %d", ErrUnavailable, lost[0])
	}
	excluded := make(map[*workerRef]bool)
	var lastErr error
	for {
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
				parts = append(parts, h.parts...)
				served = append(served, h.shards...)
			case isFatal(ctx, h.err):
				if fatal == nil {
					fatal = h.err
				}
			default:
				h.ref.bench(h.err)
				excluded[h.ref] = true
				lastErr = h.err
				failed = append(failed, h.shards...)
			}
		}
		if fatal != nil {
			return nil, nil, nil, fatal
		}
		// The loop ends: each failed round excludes another worker from the picks below.
		if len(failed) == 0 {
			break
		}
		c.retries.Add(1)
		for _, s := range failed {
			ref, err := c.pickShard(s, excluded)
			if err != nil {
				if !partial {
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
		return nil, nil, nil, fmt.Errorf("%w for any shard (after: %v)", ErrUnavailable, lastErr)
	}
	slices.Sort(served)
	slices.Sort(lost)
	return parts, served, lost, nil
}

// CoordinatorStats is the serving view the coordinator's /stats exposes:
// its own counters plus the per-worker statuses.
type CoordinatorStats struct {
	Role       string         `json:"role"`
	ShardCount int            `json:"shard_count"`
	SetID      string         `json:"set_id"`
	Searches   uint64         `json:"searches"`
	Retries    uint64         `json:"retries"`
	Failures   uint64         `json:"failures"`
	Failovers  uint64         `json:"failovers"`
	Workers    []WorkerStatus `json:"workers"`
}

// Stats snapshots the coordinator's view: its counters and per-worker
// statuses from the last probe.
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
	for _, w := range c.workers {
		w.mu.Lock()
		out.Workers = append(out.Workers, WorkerStatus{URL: w.url, Shards: w.shards, Healthy: w.healthy, Error: w.lastErr})
		w.mu.Unlock()
	}
	return out
}
