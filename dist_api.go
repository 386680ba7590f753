package s3

import (
	"context"

	"s3/internal/core"
	"s3/internal/dshard"
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
// SetProxCache is a no-op here: no workload measures a coordinator-side
// proximity cache yet.
type DistributedInstance struct {
	// substrate is the manifest's: users, extensions, statistics and
	// shard rows are answered from it, and its metrics sink is fed by the
	// coordinated rounds.
	substrate
	man    *snap.ManifestSnapshot
	coord  *dshard.Coordinator
	cancel context.CancelFunc
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
	return &DistributedInstance{
		substrate: newSubstrate(man.Base, man.Layout.Owner, len(man.Layout.Shards)),
		man:       man,
		coord:     coord,
		cancel:    cancel,
	}, nil
}

// Probe refreshes worker membership synchronously and reports whether
// every shard has a healthy worker (startup diagnostics).
func (di *DistributedInstance) Probe(ctx context.Context) error {
	return di.coord.Probe(ctx)
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
	base := di.in
	seeker, err := di.seeker(seekerURI)
	if err != nil {
		return nil, SearchInfo{}, err
	}
	// Validated and resolved before anything is fetched.
	spec, possible, err := core.Query(base, seeker, keywords, cfg.opts.K, cfg.opts.Params, cfg.opts.Trace)
	if err != nil {
		return nil, SearchInfo{}, err
	}
	if !possible {
		return nil, SearchInfo{Exact: true}, nil
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

// AttachRegistry wires the coordinator's wire instruments (fetch
// round-trip time and bytes) and search counters into r. The serving
// layer calls this once after opening, before the instance takes
// traffic.
func (di *DistributedInstance) AttachRegistry(r *obs.Registry) { di.coord.AttachRegistry(r) }

// MappedBytes reports the manifest mapping backing the coordinator.
func (di *DistributedInstance) MappedBytes() int64 { return di.man.MappedBytes() }

// Close stops the membership probes and releases the manifest mapping.
func (di *DistributedInstance) Close() error {
	di.cancel()
	return di.man.Close()
}

// DistributedStats exposes the coordinator's counters and per-worker view
// (picked up by the serving layer's /stats).
func (di *DistributedInstance) DistributedStats() any { return di.coord.Stats() }
