package s3

import (
	"context"
	"fmt"
	"sync/atomic"

	"s3/internal/core"
	"s3/internal/dshard"
	"s3/internal/graph"
	"s3/internal/obs"
	"s3/internal/snap"
)

// DistributedInstance is a Queryable that fronts a fleet of per-shard
// worker processes: it owns the shard-set manifest (seeker and keyword
// resolution, URI mapping, shard table, and the substrate every search
// explores) and runs each search itself, over the query keywords' postings
// gathered from worker replicas in one exchange per worker host. Answers —
// documents, order and score intervals — are byte-identical to serving the
// same shard set in one process; worker membership is driven by their
// /healthz, and a failed fetch is re-issued on surviving replicas.
//
// The proximity-cache hooks (SetProxCache, WarmProximity) are no-ops
// here: no workload measures a coordinator-side cache yet.
type DistributedInstance struct {
	man    *snap.ManifestSnapshot
	coord  *dshard.Coordinator
	cancel context.CancelFunc

	// obsm is the optional search-metrics sink fed by the coordinated
	// rounds.
	obsm atomic.Pointer[SearchMetrics]
}

var _ Queryable = (*DistributedInstance)(nil)

// OpenCoordinator opens the shard-set manifest and wires a coordinator
// over its substrate and the worker URLs. Membership is probed
// immediately and refreshed in the background; workers that are still
// loading join as soon as their /healthz turns serving, so it is not an
// error if coverage is incomplete at open time (searches fail until every
// shard has a live worker). Close stops the probe loop and releases the
// manifest.
func OpenCoordinator(manifestPath string, workerURLs []string, mode LoadMode) (*DistributedInstance, error) {
	man, err := snap.OpenManifest(manifestPath, snap.LoadMode(mode))
	if err != nil {
		return nil, err
	}
	coord, err := dshard.NewCoordinator(dshard.CoordinatorConfig{
		WorkerURLs: workerURLs,
		ShardCount: len(man.Layout.Shards),
		SetID:      man.Layout.SetID,
		Substrate:  man.Base,
		Layout:     man.Layout,
	})
	if err != nil {
		man.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	_ = coord.Probe(ctx)
	go coord.Run(ctx)
	return &DistributedInstance{man: man, coord: coord, cancel: cancel}, nil
}

// Probe refreshes worker membership synchronously and reports whether
// every shard has a healthy worker (startup diagnostics).
func (di *DistributedInstance) Probe(ctx context.Context) error {
	return di.coord.Probe(ctx)
}

// NumShards returns the shard count of the served set.
func (di *DistributedInstance) NumShards() int { return len(di.man.Layout.Shards) }

// HasUser reports whether uri names a user (the manifest's substrate
// carries all users).
func (di *DistributedInstance) HasUser(uri string) bool {
	n, ok := di.man.Base.NIDOf(uri)
	return ok && di.man.Base.KindOf(n) == graph.KindUser
}

// Extension returns the semantic extension of a keyword.
func (di *DistributedInstance) Extension(keyword string) []string {
	return extension(di.man.Base, keyword)
}

// Stats returns the whole-instance statistics from the manifest.
func (di *DistributedInstance) Stats() Stats { return di.man.Base.Stats() }

// Shards reports the per-shard rows: content counts from the worker
// fleet's probed stats, falling back to the manifest layout before the
// first probe lands, and the coordinator's own search and round counts.
func (di *DistributedInstance) Shards() []ShardStat {
	cs := di.coord.Stats()
	out := make([]ShardStat, len(di.man.Layout.Shards))
	for s, desc := range di.man.Layout.Shards {
		out[s] = ShardStat{Documents: desc.Docs, Components: len(desc.Comps)}
		if s < len(cs.Shards) {
			row := cs.Shards[s]
			if row.Documents > 0 || row.Components > 0 {
				out[s].Documents, out[s].Components, out[s].Tags = row.Documents, row.Components, row.Tags
			}
			out[s].Searches, out[s].Rounds = row.Searches, row.Rounds
		}
	}
	return out
}

// Search runs a distributed S3k top-k search; the answer equals the
// single-process sharded answer.
func (di *DistributedInstance) Search(seekerURI string, keywords []string, opts ...Option) ([]Result, error) {
	rs, _, err := di.SearchInfoed(seekerURI, keywords, opts...)
	return rs, err
}

// SearchInfoed is Search returning termination information as well.
func (di *DistributedInstance) SearchInfoed(seekerURI string, keywords []string, opts ...Option) ([]Result, SearchInfo, error) {
	cfg := searchConfig{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	base := di.man.Base
	seeker, ok := base.NIDOf(seekerURI)
	if !ok || base.KindOf(seeker) != graph.KindUser {
		return nil, SearchInfo{}, fmt.Errorf("s3: unknown seeker %q", seekerURI)
	}
	if cfg.opts.K <= 0 {
		return nil, SearchInfo{}, fmt.Errorf("s3: k must be positive, got %d", cfg.opts.K)
	}
	groups, possible, err := core.ResolveKeywordGroups(base, keywords)
	if err != nil {
		return nil, SearchInfo{}, err
	}
	if !possible {
		return nil, SearchInfo{Exact: true}, nil
	}
	spec := core.SearchSpec{
		Seeker: seeker,
		Groups: groups,
		K:      cfg.opts.K,
		Params: cfg.opts.Params,
	}
	copts := core.CoordOptions{
		MaxIterations: cfg.opts.MaxIterations,
		Budget:        cfg.opts.Budget,
		Trace:         cfg.opts.Trace,
		Obs:           di.obsm.Load(),
		Ctx:           cfg.opts.Ctx,
	}
	var (
		sel   []core.CandMeta
		stats core.Stats
		deg   *dshard.Degradation
	)
	if cfg.partial {
		sel, stats, deg, err = di.coord.SearchPartial(spec, copts)
	} else {
		sel, stats, err = di.coord.Search(spec, copts)
	}
	if err != nil {
		return nil, SearchInfo{}, err
	}
	rs := make([]core.Result, 0, len(sel))
	for _, c := range sel {
		rs = append(rs, core.Result{Doc: c.Doc, URI: base.URIOf(c.Doc), Lower: c.Lower, Upper: c.Upper})
	}
	info := mapSearchInfo(stats)
	if deg != nil {
		info.Degraded = true
		info.ServedShards = deg.Served
	}
	return mapResults(base, rs), info, nil
}

// SetProxCache is a no-op: a coordinator-side proximity cache is left for
// when a workload measures it.
func (di *DistributedInstance) SetProxCache(*ProxCache) {}

// SetSearchMetrics attaches (or with nil, detaches) the instrument
// bundle fed by subsequent coordinated searches.
func (di *DistributedInstance) SetSearchMetrics(m *SearchMetrics) { di.obsm.Store(m) }

// AttachRegistry wires the coordinator's wire instruments (fetch
// round-trip time and bytes) and search counters into r. The serving
// layer calls this once after opening, before the instance takes
// traffic.
func (di *DistributedInstance) AttachRegistry(r *obs.Registry) { di.coord.AttachRegistry(r) }

// WarmProximity is a no-op for the same reason.
func (di *DistributedInstance) WarmProximity(string, float64, float64, int) (int, bool) {
	return 0, false
}

// MappedBytes reports the manifest mapping backing the coordinator.
func (di *DistributedInstance) MappedBytes() int64 { return di.man.MappedBytes() }

// Close stops the membership probes and releases the manifest mapping.
func (di *DistributedInstance) Close() error {
	di.cancel()
	return di.man.Close()
}

// DistributedStats exposes the coordinator's aggregated per-worker view
// (picked up by the serving layer's /stats).
func (di *DistributedInstance) DistributedStats() any { return di.coord.Stats() }
