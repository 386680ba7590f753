package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s3"
	"s3/internal/core"
	"s3/internal/dshard"
	"s3/internal/faultnet"
	"s3/internal/graph"
	"s3/internal/proxcache"
	"s3/internal/score"
	"s3/internal/server"
	"s3/internal/snap"
	"s3/internal/sparse"
	"s3/internal/topks"
)

// tracedMetrics lists every per-layer metric the in-process probes can
// fill, with its unit. A workload whose topology does not put a layer on
// the request path skips that layer's probe and reports 0 for it.
var tracedMetrics = map[string]string{
	"snap.open_mmap_ms": "ms", "snap.open_copy_ms": "ms", "snap.open_shardset_ms": "ms",
	"snap.open_workerhost_ms": "ms", "snap.mapped_mb": "MiB",
	"index.resolve_us": "us", "index.candidates_per_search": "count",
	"score.step_us": "us", "score.steps_per_search": "count", "score.bounds_ns": "ns",
	"sparse.propagate_us": "us", "sparse.edges_per_step": "count", "sparse.ns_per_edge": "ns",
	"core.search_cold_ms": "ms", "core.search_warm_ms": "ms", "core.rest_ms": "ms",
	"core.exec_round_us": "us", "core.coordinate_self_us": "us", "core.allocs_per_search": "count",
	"topks.merge_ns": "ns", "proxcache.get_ns": "ns", "proxcache.put_us": "us",
	"server.self_us":       "us",
	"dshard.coord_self_ms": "ms", "dshard.rpc_rtt_p50_us": "us",
	"dshard.worker_busy_ms_per_search": "ms", "dshard.wire_us_per_rpc": "us",
	"trace.overhead_ratio": "ratio",
}

const (
	// openRepeats is how many times each snapshot open is timed; the
	// median is reported.
	openRepeats = 5
	// batch is how many calls of a sub-microsecond function (cache get and
	// put, top-k merge) share one span, so that the clock reads do not
	// dominate what is measured.
	batch = 64
	// warmStride: the warm-path probe runs on every warmStride-th request
	// (each costs a cold search to seed the checkpoint).
	warmStride = 4
)

// probeLayers replays the first traceN requests of the workload's list
// in-process, one goroutine issuing them, with spans recorded here, in
// the benchmark's own code, around calls into each layer's public
// functions. It fills m and writes the spans to out/trace-<workload>.json.
func (e *env) probeLayers(ctx context.Context, m map[string]metric, w *workload, ref *reference, units []unit, quick bool) error {
	for name, unit := range tracedMetrics {
		m[name] = metric{0, unit}
	}
	n := w.traceN
	if quick {
		n = min(n, 20)
	}
	var reqs []request
	for _, u := range units {
		reqs = append(reqs, u...)
		if len(reqs) >= n {
			reqs = reqs[:n]
			break
		}
	}
	set := ""
	if w.kind != kindSingle {
		var err error
		if set, err = e.generate(ctx, filepath.Join(e.workDir, "refset"), shardCount); err != nil {
			return err
		}
	}
	rec := newRecorder()
	p := &prober{rec: rec, m: m, ref: ref, reqs: reqs, set: set, w: w}
	steps := []struct {
		on  bool
		run func() error
	}{
		{true, p.opens},
		{w.probes&probeEngine != 0, p.engine},
		{w.probes&probeWarm != 0, p.warm},
		{w.probes&probeShards != 0, p.shards},
		{w.probes&probeServer != 0, p.server},
		{w.probes&probeDist != 0, p.dist},
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.on {
			if err := s.run(); err != nil {
				return fmt.Errorf("%s probes: %w", w.name, err)
			}
		}
	}
	return rec.write(filepath.Join(e.outDir, "trace-"+w.name+".json"))
}

type prober struct {
	rec  *recorder
	m    map[string]metric
	ref  *reference
	reqs []request
	set  string // shard-set manifest, "" for single-snapshot workloads
	w    *workload
}

func (p *prober) put(name string, v float64) { p.m[name] = metric{v, tracedMetrics[name]} }

// opens times the snapshot opens the workload's set-up and reloads pay.
func (p *prober) opens() error {
	timeOpen := func(metricName string, open func() (mapped int64, closeFn func() error, err error)) (int64, error) {
		var ds []float64
		var mapped int64
		for i := 0; i < openRepeats; i++ {
			id := p.rec.begin(strings.TrimSuffix(metricName, "_ms"), 0, i)
			mb, closeFn, err := open()
			p.rec.end(id)
			if err != nil {
				return 0, err
			}
			ds = append(ds, millis(p.rec.spans[id-1].dur()))
			mapped = mb
			if err := closeFn(); err != nil {
				return 0, err
			}
		}
		p.put(metricName, median(ds))
		return mapped, nil
	}
	openSnap := func(mode s3.LoadMode) func() (int64, func() error, error) {
		return func() (int64, func() error, error) {
			inst, err := s3.OpenSnapshot(p.ref.path, mode)
			if err != nil {
				return 0, nil, err
			}
			return inst.MappedBytes(), inst.Close, nil
		}
	}
	mapped, err := timeOpen("snap.open_mmap_ms", openSnap(s3.LoadMmap))
	if err != nil {
		return err
	}
	if _, err := timeOpen("snap.open_copy_ms", openSnap(s3.LoadCopy)); err != nil {
		return err
	}
	if p.set != "" {
		setMapped, err := timeOpen("snap.open_shardset_ms", func() (int64, func() error, error) {
			inst, err := s3.OpenShardSet(p.set, s3.LoadMmap)
			if err != nil {
				return 0, nil, err
			}
			return inst.MappedBytes(), inst.Close, nil
		})
		if err != nil {
			return err
		}
		hostMapped, err := timeOpen("snap.open_workerhost_ms", func() (int64, func() error, error) {
			ws, err := snap.OpenWorkerHost(p.set, []int{0, 2}, snap.LoadMmap, snap.VerifyLazy)
			if err != nil {
				return 0, nil, err
			}
			return ws.MappedBytes(), ws.Close, nil
		})
		if err != nil {
			return err
		}
		mapped = setMapped
		if p.w.kind == kindDist {
			mapped = 2 * hostMapped // two worker hosts of two shards each
		}
	}
	p.put("snap.mapped_mb", float64(mapped)/(1<<20))
	return nil
}

func (p *prober) nid(in *graph.Instance, uri string) (graph.NID, error) {
	n, ok := in.NIDOf(uri)
	if !ok {
		return 0, fmt.Errorf("unknown seeker %s", uri)
	}
	return n, nil
}

// engine attributes a cold single-engine search. The search itself is one
// span; its layers are then replayed standalone over the same inputs —
// keyword resolution and candidate enumeration, the proximity iterator
// stepped to the depth the search reached, the matrix propagation over
// the same frontiers, the score bounds over the candidates — because
// the engine's own stages cannot be timed from outside it. core.rest is
// what the search took beyond the replayed resolution and steps:
// admission, bounds and the greedy selection.
func (p *prober) engine() error {
	in, ix, eng := p.ref.in, p.ref.ix, p.ref.eng
	params := score.DefaultParams()

	// Untraced passes: the same searches with no recorder. The first only
	// touches the mapped pages and sizes the engine's pools, so that the
	// second — which gives trace.overhead_ratio its base and the exact
	// allocation count — and the traced pass below start from the same state.
	var before, after runtime.MemStats
	var untraced time.Duration
	for pass := 0; pass < 2; pass++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := range p.reqs {
			seeker, err := p.nid(in, p.reqs[i].Seeker)
			if err != nil {
				return err
			}
			if _, _, err := eng.Search(seeker, p.reqs[i].Keywords, core.Options{K: p.reqs[i].K, Params: params}); err != nil {
				return err
			}
		}
		untraced = time.Since(t0)
		runtime.ReadMemStats(&after)
	}
	p.put("core.allocs_per_search", float64(after.Mallocs-before.Mallocs)/float64(len(p.reqs)))

	mat := in.Matrix()
	_, rowPtr, _, _ := mat.Raw()
	out := make([]float64, in.NumNodes())
	scratch := make([]bool, in.NumNodes())
	var (
		rest             []time.Duration
		edges, cands     int
		steps, resolveNS int64
	)
	for i := range p.reqs {
		q := &p.reqs[i]
		seeker, _ := p.nid(in, q.Seeker)
		sid := p.rec.begin("core.search", 0, i)
		_, st, err := eng.Search(seeker, q.Keywords, core.Options{K: q.K, Params: params})
		p.rec.end(sid)
		if err != nil {
			return err
		}

		rid := p.rec.begin("index.resolve", 0, i)
		groups, possible, err := core.ResolveKeywordGroups(in, q.Keywords)
		if err != nil {
			return err
		}
		var docs []graph.NID
		var sc *score.Scorer
		if possible {
			if sc, err = score.NewScorer(in, ix, params, groups); err != nil {
				return err
			}
			for _, c := range ix.CompsForGroups(groups) {
				docs = append(docs, ix.CandidatesInComp(c, groups)...)
			}
		}
		p.rec.end(rid)
		resolve := p.rec.spans[rid-1].dur()
		resolveNS += int64(resolve)
		cands += len(docs)

		var stepped time.Duration
		it := score.NewIterator(in, params, seeker)
		for it.N() < st.Iterations && !it.Done() {
			for _, r := range it.Border() {
				edges += int(rowPtr[r+1] - rowPtr[r])
			}
			pid := p.rec.begin("sparse.propagate", 0, i)
			nz := mat.PropagateT(it.BorderProx(), it.Border(), out, scratch)
			p.rec.end(pid)
			sparse.ZeroVec(out, nz)

			tid := p.rec.begin("score.step", 0, i)
			it.Step()
			p.rec.end(tid)
			stepped += p.rec.spans[tid-1].dur()
			steps++
		}
		if sc != nil {
			bid := p.rec.begin("score.bounds", 0, i)
			tail, all := it.TailBound(), it.AllProx()
			for _, d := range docs {
				sc.Bounds(d, all, tail)
			}
			p.rec.end(bid)
		}
		rest = append(rest, p.rec.spans[sid-1].dur()-stepped-resolve)
	}
	n := float64(len(p.reqs))
	searches := p.rec.named("core.search")
	p.put("core.search_cold_ms", millis(meanDur(searches)))
	p.put("core.rest_ms", millis(meanDur(rest)))
	p.put("index.resolve_us", micros(time.Duration(resolveNS))/n)
	p.put("index.candidates_per_search", float64(cands)/n)
	p.put("score.step_us", micros(meanDur(p.rec.named("score.step"))))
	p.put("score.steps_per_search", float64(steps)/n)
	p.put("score.bounds_ns", ratio(float64(sumDur(p.rec.named("score.bounds"))), float64(cands)))
	prop := p.rec.named("sparse.propagate")
	p.put("sparse.propagate_us", micros(meanDur(prop)))
	p.put("sparse.edges_per_step", ratio(float64(edges), float64(steps)))
	p.put("sparse.ns_per_edge", ratio(float64(sumDur(prop)), float64(edges)))
	p.put("trace.overhead_ratio", ratio(float64(sumDur(searches)), float64(untraced)))
	return nil
}

// warm measures the checkpoint cache on real checkpoints and the search
// path that resumes one: a cold search for the request's seeker seeds the
// cache, then the next request's keywords are searched for the same
// seeker.
func (p *prober) warm() error {
	in, eng := p.ref.in, p.ref.eng
	params := score.DefaultParams()
	const budget = 1 << 30
	pc := proxcache.New(budget)
	fresh := make([]*proxcache.Cache, batch)
	var gets, puts int
	for i := 0; i+1 < len(p.reqs); i += warmStride {
		q, next := &p.reqs[i], &p.reqs[i+1]
		seeker, err := p.nid(in, q.Seeker)
		if err != nil {
			return err
		}
		opts := core.Options{K: q.K, Params: params, ProxCache: pc}
		if _, _, err := eng.Search(seeker, q.Keywords, opts); err != nil {
			return err
		}
		key := proxcache.Key{Seeker: seeker, Params: params}
		cp := pc.Get(key, in)
		if cp == nil {
			continue // the query matched nothing, so nothing was explored
		}
		gid := p.rec.begin("proxcache.get", 0, i)
		for j := 0; j < batch; j++ {
			pc.Get(key, in)
		}
		p.rec.end(gid)
		gets += batch

		for j := range fresh {
			fresh[j] = proxcache.New(budget)
		}
		pid := p.rec.begin("proxcache.put", 0, i)
		for _, c := range fresh {
			c.Put(key, cp)
		}
		p.rec.end(pid)
		puts += batch

		opts.K = next.K
		wid := p.rec.begin("core.search_warm", 0, i)
		_, st, err := eng.Search(seeker, next.Keywords, opts)
		p.rec.end(wid)
		if err != nil {
			return err
		}
		if st.ResumedDepth == 0 && st.Reason != core.StopNoMatch {
			return fmt.Errorf("search for %s did not resume its checkpoint", q.Seeker)
		}
		pc.Purge()
	}
	p.put("proxcache.get_ns", ratio(float64(sumDur(p.rec.named("proxcache.get"))), float64(gets)))
	p.put("proxcache.put_us", ratio(micros(sumDur(p.rec.named("proxcache.put"))), float64(puts)))
	p.put("core.search_warm_ms", millis(meanDur(p.rec.named("core.search_warm"))))
	return nil
}

// timedExec is the timing ShardExecutor decorator: every protocol call is
// a child span of the coordinated search, and the last round's kept list
// is captured for the merge measurement.
type timedExec struct {
	inner  core.ShardExecutor
	rec    *recorder
	parent *int
	search int
	kept   []core.CandMeta
}

func (x *timedExec) Begin(spec core.SearchSpec) (core.BeginInfo, error) {
	id := x.rec.begin("core.exec_begin", *x.parent, x.search)
	defer x.rec.end(id)
	return x.inner.Begin(spec)
}

func (x *timedExec) Round() (core.RoundInfo, error) {
	id := x.rec.begin("core.exec_round", *x.parent, x.search)
	info, err := x.inner.Round()
	x.rec.end(id)
	x.kept = append(x.kept[:0], info.Kept...)
	return info, err
}

func (x *timedExec) Finalize() (core.RoundInfo, error) {
	id := x.rec.begin("core.exec_finalize", *x.parent, x.search)
	info, err := x.inner.Finalize()
	x.rec.end(id)
	x.kept = append(x.kept[:0], info.Kept...)
	return info, err
}

func (x *timedExec) End() { x.inner.End() }

// candBefore is the canonical candidate order (core's unexported
// metaBefore): upper bound descending, ties by node id.
func candBefore(a, b core.CandMeta) bool {
	if a.Upper != b.Upper {
		return a.Upper > b.Upper
	}
	return a.Doc < b.Doc
}

// specFor resolves a request against the shared substrate the way a
// coordinator does.
func specFor(base *graph.Instance, q *request) (core.SearchSpec, bool, error) {
	seeker, ok := base.NIDOf(q.Seeker)
	if !ok {
		return core.SearchSpec{}, false, fmt.Errorf("unknown seeker %s", q.Seeker)
	}
	groups, possible, err := core.ResolveKeywordGroups(base, q.Keywords)
	if err != nil || !possible {
		return core.SearchSpec{}, false, err
	}
	return core.SearchSpec{Seeker: seeker, Groups: groups, K: q.K, Params: score.DefaultParams(), Epsilon: 1e-12}, true, nil
}

// shards runs core.Coordinate over one local executor per shard, each
// behind timedExec, and then merges the per-shard lists it captured.
func (p *prober) shards() error {
	set, err := snap.OpenShardSet(p.set, snap.LoadMmap)
	if err != nil {
		return err
	}
	defer set.Close()
	engines := make([]*core.Engine, len(set.Set.Shards))
	for s := range engines {
		engines[s] = core.NewEngine(set.Set.Shards[s], set.Set.Indexes[s])
	}
	merges := 0
	for i := range p.reqs {
		spec, possible, err := specFor(set.Set.Base, &p.reqs[i])
		if err != nil {
			return err
		}
		if !possible {
			continue
		}
		var cid int
		timed := make([]*timedExec, len(engines))
		execs := make([]core.ShardExecutor, len(engines))
		for s, eng := range engines {
			timed[s] = &timedExec{inner: core.NewShardExecutor(eng, 0), rec: p.rec, parent: &cid, search: i}
			execs[s] = timed[s]
		}
		cid = p.rec.begin("core.coordinate", 0, i)
		_, _, err = core.Coordinate(execs, spec, core.CoordOptions{})
		p.rec.end(cid)
		if err != nil {
			return err
		}
		lists := make([][]core.CandMeta, len(timed))
		for s, x := range timed {
			lists[s] = x.kept
		}
		mid := p.rec.begin("topks.merge", 0, i)
		for j := 0; j < batch; j++ {
			topks.MergeTopK(spec.K, lists, candBefore)
		}
		p.rec.end(mid)
		merges += batch
	}
	p.put("core.exec_round_us", micros(meanDur(p.rec.named("core.exec_round"))))
	p.put("core.coordinate_self_us", micros(meanDur(p.rec.self("core.coordinate"))))
	p.put("topks.merge_ns", ratio(float64(sumDur(p.rec.named("topks.merge"))), float64(merges)))
	return nil
}

// timedInstance is the timing s3.Queryable decorator handed to the server
// as Config.Instance: the engine's share of a request is a child span of
// the handler's, so the handler's self time is the serving layer alone.
type timedInstance struct {
	s3.Queryable
	rec    *recorder
	parent int
	search int
}

func (t *timedInstance) SearchInfoed(seeker string, keywords []string, opts ...s3.Option) ([]s3.Result, s3.SearchInfo, error) {
	id := t.rec.begin("server.instance", t.parent, t.search)
	defer t.rec.end(id)
	return t.Queryable.SearchInfoed(seeker, keywords, opts...)
}

// server drives Server.Handler in-process with the workload's cache
// settings; a result-cache hit never reaches the instance, so its whole
// handler span is self time.
func (p *prober) server() error {
	var (
		inst s3.Queryable
		err  error
	)
	if p.w.kind == kindSharded {
		inst, err = s3.OpenShardSet(p.set, s3.LoadMmap)
	} else {
		inst, err = s3.OpenSnapshot(p.ref.path, s3.LoadMmap)
	}
	if err != nil {
		return err
	}
	defer inst.Close()
	ti := &timedInstance{Queryable: inst, rec: p.rec}
	cfg := server.Config{Instance: ti, CacheSize: -1, ProxCacheBytes: -1}
	if p.w.resultCache {
		cfg.CacheSize = 0
	}
	if p.w.proxMB > 0 {
		cfg.ProxCacheBytes = int64(p.w.proxMB) << 20
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	for i := range p.reqs {
		req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(p.reqs[i].Body))
		rw := httptest.NewRecorder()
		id := p.rec.begin("server.handle", 0, i)
		ti.parent, ti.search = id, i
		h.ServeHTTP(rw, req)
		p.rec.end(id)
		if rw.Code != http.StatusOK {
			return fmt.Errorf("in-process POST /search: %d %s", rw.Code, rw.Body)
		}
	}
	p.put("server.self_us", micros(meanDur(p.rec.self("server.handle"))))
	return nil
}

// Headers that carry the RPC's span and search ids from the coordinator's
// round tripper to the worker-side middleware.
const (
	spanHeader   = "X-Bench-Span"
	searchHeader = "X-Bench-Search"
)

// timedTransport is the coordinator's timing http.RoundTripper: every
// round-protocol RPC is a child span of the search in flight, ended when
// the reply body has been consumed. Health probes and the asynchronous
// session-end call are passed through untimed: the search does not wait
// for them.
type timedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	search atomic.Int64 // index of the search in flight
	parent atomic.Int64 // its span
	// open counts the RPC spans not yet ended: a speculative RPC can still
	// be in flight when its search returns.
	open sync.WaitGroup
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/shard/") || strings.HasSuffix(req.URL.Path, "/end") {
		return t.base.RoundTrip(req)
	}
	search := int(t.search.Load())
	id := t.rec.begin("dshard.rpc", int(t.parent.Load()), search)
	t.open.Add(1)
	end := sync.OnceFunc(func() {
		t.rec.end(id)
		t.open.Done()
	})
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	req.Header.Set(searchHeader, strconv.Itoa(search))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// spanBody ends the RPC's span when the coordinator closes the reply.
type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

// timedWorker is the worker-side timing middleware: the handler's span is
// a child of the RPC span named in the request's headers.
func timedWorker(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		if parent == 0 {
			h.ServeHTTP(rw, req)
			return
		}
		search, _ := strconv.Atoi(req.Header.Get(searchHeader))
		id := rec.begin("dshard.worker", parent, search)
		h.ServeHTTP(rw, req)
		rec.end(id)
	})
}

// dist runs the distributed tier in-process with the dist-rtt topology:
// two dshard workers of two shards each behind timedWorker, each reached
// through a faultnet.Proxy with the workload's latency, and a
// dshard.Coordinator whose client carries timedTransport. The search
// span's self time is the coordinator's own work; an RPC span's self
// time minus the two injected write delays is what the wire costs.
func (p *prober) dist() error {
	man, err := snap.OpenManifest(p.set, snap.LoadMmap)
	if err != nil {
		return err
	}
	defer man.Close()
	var urls []string
	for _, hosted := range [][]int{{0, 2}, {1, 3}} {
		wk := dshard.NewWorker(dshard.WorkerConfig{ManifestPath: p.set, Shards: hosted,
			Mode: snap.LoadMmap, Verify: snap.VerifyLazy, ProxCacheBytes: -1})
		if err := wk.Load(); err != nil {
			return err
		}
		ts := httptest.NewServer(timedWorker(wk.Handler(), p.rec))
		defer ts.Close()
		px, err := faultnet.NewProxy("127.0.0.1:0", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			return err
		}
		defer px.Close()
		px.SetLatency(linkLatency)
		go func() { _ = px.Serve() }() // returns once the deferred Close runs
		urls = append(urls, "http://"+px.Addr())
	}
	base := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	defer base.CloseIdleConnections()
	tt := &timedTransport{base: base, rec: p.rec}
	coord, err := dshard.NewCoordinator(dshard.CoordinatorConfig{
		WorkerURLs: urls,
		ShardCount: len(man.Layout.Shards),
		SetID:      man.Layout.SetID,
		Client:     &http.Client{Timeout: 30 * time.Second, Transport: tt},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := coord.Probe(ctx); err != nil {
		return err
	}
	searches := 0
	for i := range p.reqs {
		spec, possible, err := specFor(man.Base, &p.reqs[i])
		if err != nil {
			return err
		}
		if !possible {
			continue
		}
		sid := p.rec.begin("dshard.search", 0, i)
		tt.search.Store(int64(i))
		tt.parent.Store(int64(sid))
		_, _, err = coord.Search(spec, core.CoordOptions{Ctx: ctx})
		p.rec.end(sid)
		if err != nil {
			return err
		}
		searches++
	}
	tt.open.Wait() // the coordinator closes every reply, abandoned ones too
	rpcs := p.rec.named("dshard.rpc")
	var rtt []float64
	for _, d := range rpcs {
		rtt = append(rtt, micros(d))
	}
	p.put("dshard.coord_self_ms", millis(meanDur(p.rec.self("dshard.search"))))
	p.put("dshard.rpc_rtt_p50_us", median(rtt))
	p.put("dshard.worker_busy_ms_per_search", ratio(millis(sumDur(p.rec.named("dshard.worker"))), float64(searches)))
	p.put("dshard.wire_us_per_rpc", micros(meanDur(p.rec.self("dshard.rpc"))-2*linkLatency))
	return nil
}

// printHistogram shows, per outcome class, where a workload's latencies
// lie, and at which percentiles one class ends and the next begins — a
// reported percentile that sits within a few points of such a boundary
// flips between two modes from run to run.
func printHistogram(w io.Writer, name string, load *loadResult) {
	all, byOutcome := load.latencies()
	total := len(all)
	if total == 0 {
		return
	}
	// Buckets double from 1/16 ms; the last one is open-ended.
	const buckets = 14
	fmt.Fprintf(w, "%s: latency by outcome, %d replies; bucket upper edges in ms\n%-8s %7s %6s", name, total, "outcome", "n", "upto%")
	for b := 0; b < buckets-1; b++ {
		fmt.Fprintf(w, " %6.4g", 0.0625*float64(int(1)<<b))
	}
	fmt.Fprintf(w, " %6s\n", "more")
	cum := 0
	for _, o := range []string{outCached, outWarm, outCold} {
		xs := byOutcome[o]
		if len(xs) == 0 {
			continue
		}
		cum += len(xs)
		counts := make([]int, buckets)
		for _, x := range xs {
			b := 0
			for b < buckets-1 && x > 0.0625*float64(int(1)<<b) {
				b++
			}
			counts[b]++
		}
		fmt.Fprintf(w, "%-8s %7d %6.1f", o, len(xs), 100*float64(cum)/float64(total))
		for _, c := range counts {
			fmt.Fprintf(w, " %6d", c)
		}
		fmt.Fprintln(w)
	}
}
