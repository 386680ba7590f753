package s3

import (
	"fmt"
	"sync/atomic"

	"s3/internal/core"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/snap"
)

// Queryable is the serving surface shared by a single Instance and a
// component-sharded ShardedInstance: everything the query server needs to
// answer searches, report statistics and describe its shard layout. A
// plain Instance is the degenerate one-shard case.
type Queryable interface {
	// HasUser reports whether uri names a user (a valid seeker).
	HasUser(uri string) bool
	// Search runs an S3k top-k search.
	Search(seekerURI string, keywords []string, opts ...Option) ([]Result, error)
	// SearchInfoed is Search returning termination information as well.
	SearchInfoed(seekerURI string, keywords []string, opts ...Option) ([]Result, SearchInfo, error)
	// Extension returns the semantic extension of a keyword.
	Extension(keyword string) []string
	// Stats returns whole-instance statistics.
	Stats() Stats
	// Shards describes the shard layout: one entry per shard with its
	// content counts and lifetime search count.
	Shards() []ShardStat
	// SetProxCache attaches a seeker-proximity checkpoint cache consulted
	// and fed by subsequent searches (nil detaches).
	SetProxCache(*ProxCache)
	// SetSearchMetrics attaches the instrument bundle fed by subsequent
	// searches (nil detaches). Safe while searches are in flight.
	SetSearchMetrics(*SearchMetrics)
	// WarmProximity pre-explores a seeker to maxDepth under (gamma, eta)
	// and seeds the attached proximity cache, returning the covered depth
	// and whether this call actually performed a seed.
	WarmProximity(seekerURI string, gamma, eta float64, maxDepth int) (int, bool)
	// MappedBytes reports how many snapshot bytes back the instance
	// through memory mappings (0 when copy-loaded).
	MappedBytes() int64
	// Close releases the instance's memory mappings, if any. Only call it
	// once no search is executing; idempotent, and a no-op for
	// copy-loaded instances.
	Close() error
}

var (
	_ Queryable = (*Instance)(nil)
	_ Queryable = (*ShardedInstance)(nil)
)

// ShardStat summarises one shard of a Queryable.
type ShardStat struct {
	// Documents, Components and Tags count the shard's content.
	Documents  int
	Components int
	Tags       int
	// Searches counts the queries that fanned out to this shard (for a
	// sharded instance: had a matching component there; for a plain
	// instance: every search).
	Searches uint64
	// Rounds counts the lockstep search rounds that carried candidate
	// work on this shard — with Searches, the load signal a shard
	// rebalancer consumes. A plain instance counts every exploration
	// round of every search (each round carries the whole query's work).
	Rounds uint64
}

// Shards describes a plain instance as a single shard holding everything.
func (i *Instance) Shards() []ShardStat {
	s := i.in.Stats()
	return []ShardStat{{
		Documents:  s.Documents,
		Components: s.Components,
		Tags:       s.Tags,
		Searches:   i.searches.Load(),
		Rounds:     i.rounds.Load(),
	}}
}

// ShardedInstance is a frozen S3 instance partitioned by component into N
// shards sharing one proximity substrate (dictionary, node tables,
// network matrix, ontology). Searches fan out across per-shard engines in
// lockstep and merge per-shard answers by score interval; the result —
// documents, order and score intervals — is identical to searching the
// unsharded instance (see internal/core's sharded engine). It is
// immutable (counters aside) and safe for concurrent searches.
type ShardedInstance struct {
	base   *graph.Instance
	shards []*graph.Instance
	ixs    []*index.Index
	seng   *core.ShardedEngine

	// lifecycle owns the memory mappings behind a LoadMmap shard set.
	lifecycle

	// prox is the optional seeker-proximity checkpoint cache shared by the
	// fan-out searches.
	prox atomic.Pointer[ProxCache]

	// obsm is the optional search-metrics sink shared by the fan-out
	// searches.
	obsm atomic.Pointer[SearchMetrics]
}

// SetSearchMetrics attaches (or with nil, detaches) the instrument
// bundle fed by subsequent searches.
func (si *ShardedInstance) SetSearchMetrics(m *SearchMetrics) { si.obsm.Store(m) }

// ShardBy partitions the instance into n component shards in memory
// (without going through shard-set files): components are spread by
// balanced document count, each shard receives its component projection
// and index slice, and the result searches through the fan-out/merge
// engine. Useful for exploiting multi-core parallelism on one box and for
// testing shard layouts before persisting them.
func (i *Instance) ShardBy(n int) (*ShardedInstance, error) {
	parts, err := graph.PartitionComponents(i.in, n)
	if err != nil {
		return nil, err
	}
	shards := make([]*graph.Instance, n)
	ixs := make([]*index.Index, n)
	for s, comps := range parts {
		proj, err := i.in.ProjectComponents(comps)
		if err != nil {
			return nil, err
		}
		pix, err := i.ix.Project(proj)
		if err != nil {
			return nil, err
		}
		shards[s], ixs[s] = proj, pix
	}
	return newShardedInstance(i.in, shards, ixs)
}

func newShardedInstance(base *graph.Instance, shards []*graph.Instance, ixs []*index.Index) (*ShardedInstance, error) {
	engines := make([]*core.Engine, len(shards))
	for s := range shards {
		engines[s] = core.NewEngine(shards[s], ixs[s])
	}
	seng, err := core.NewShardedEngine(engines)
	if err != nil {
		return nil, err
	}
	return &ShardedInstance{base: base, shards: shards, ixs: ixs, seng: seng}, nil
}

// NumShards returns the shard count.
func (si *ShardedInstance) NumShards() int { return len(si.shards) }

// Stats returns the whole-instance statistics (identical to the
// unsharded instance's: the substrate is shared, the shards partition the
// content).
func (si *ShardedInstance) Stats() Stats { return si.base.Stats() }

// HasUser reports whether uri names a user (users are shared substrate,
// so every shard can act for any seeker).
func (si *ShardedInstance) HasUser(uri string) bool {
	n, ok := si.base.NIDOf(uri)
	return ok && si.base.KindOf(n) == graph.KindUser
}

// Extension returns the semantic extension of a keyword (the ontology is
// shared substrate).
func (si *ShardedInstance) Extension(keyword string) []string {
	return extension(si.base, keyword)
}

// Shards describes the shard layout with per-shard content counts and
// fan-out search counts.
func (si *ShardedInstance) Shards() []ShardStat {
	touches := si.seng.ShardTouches()
	rounds := si.seng.ShardRounds()
	out := make([]ShardStat, len(si.shards))
	for s, sh := range si.shards {
		st := sh.Stats()
		out[s] = ShardStat{
			Documents:  st.Documents,
			Components: st.Components,
			Tags:       st.Tags,
			Searches:   touches[s],
			Rounds:     rounds[s],
		}
	}
	return out
}

// Search runs a sharded S3k top-k search; the answer equals the unsharded
// answer.
func (si *ShardedInstance) Search(seekerURI string, keywords []string, opts ...Option) ([]Result, error) {
	rs, _, err := si.SearchInfoed(seekerURI, keywords, opts...)
	return rs, err
}

// SearchInfoed is Search returning termination information as well.
func (si *ShardedInstance) SearchInfoed(seekerURI string, keywords []string, opts ...Option) ([]Result, SearchInfo, error) {
	cfg := searchConfig{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	seeker, ok := si.base.NIDOf(seekerURI)
	if !ok {
		return nil, SearchInfo{}, fmt.Errorf("s3: unknown seeker %q", seekerURI)
	}
	if pc := si.prox.Load(); pc != nil {
		cfg.opts.ProxCache = pc.c
	}
	cfg.opts.Obs = si.obsm.Load()
	rs, stats, err := si.seng.Search(seeker, keywords, cfg.opts)
	if err != nil {
		return nil, SearchInfo{}, err
	}
	return mapResults(si.base, rs), mapSearchInfo(stats), nil
}

// WriteShardSetFiles partitions the instance into n shards and persists
// them as a shard set: the manifest at manifestPath (shared substrate +
// layout) and one file per shard next to it, named
// "<manifest base name>.shard-<i>". It returns the shard file paths.
func (i *Instance) WriteShardSetFiles(manifestPath string, n int) ([]string, error) {
	parts, err := graph.PartitionComponents(i.in, n)
	if err != nil {
		return nil, err
	}
	return snap.WriteShardSetFiles(manifestPath, i.in, i.ix, parts)
}

// OpenShardSet loads a shard set from disk in the given mode: the
// manifest plus the shard files it names (resolved in the manifest's
// directory). With LoadMmap the shared substrate and every per-shard
// index slice are views into the mapped files; call Close when the
// instance is retired (after in-flight searches finish) to unmap them.
func OpenShardSet(manifestPath string, mode LoadMode) (*ShardedInstance, error) {
	s, err := snap.OpenShardSet(manifestPath, snap.LoadMode(mode))
	if err != nil {
		return nil, err
	}
	si, err := newShardedInstance(s.Set.Base, s.Set.Shards, s.Set.Indexes)
	if err != nil {
		s.Close()
		return nil, err
	}
	si.setMapped(s.MappedBytes(), s.Close)
	return si, nil
}
