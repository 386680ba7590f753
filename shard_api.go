package s3

import (
	"slices"

	"s3/internal/core"
	"s3/internal/graph"
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
	// Searches counts the queries that matched a component on this shard
	// (a plain instance is one shard holding every component).
	Searches uint64
	// Rounds counts the exploration rounds of those searches — with
	// Searches, the load signal a shard rebalancer consumes. A sharded
	// instance and a distributed coordinator over the same set count it
	// the same way.
	Rounds uint64
}

// Shards describes a plain instance as a single shard holding everything.
func (i *Instance) Shards() []ShardStat {
	s := i.in.Stats()
	searches, rounds := i.load.Shard(0)
	return []ShardStat{{
		Documents:  s.Documents,
		Components: s.Components,
		Tags:       s.Tags,
		Searches:   searches,
		Rounds:     rounds,
	}}
}

// ShardedInstance is a frozen S3 instance whose components are split into
// N shards, as a shard set's files split them. The split is a file layout
// and a load signal, not a search topology: a search runs as one engine
// over the shared substrate (dictionary, node tables, network matrix,
// ontology) and one index holding every shard's postings, so the result —
// documents, order and score intervals — is the unsharded instance's. The
// per-shard rows count what a distributed coordinator over the same set
// counts. It is immutable (counters aside) and safe for concurrent
// searches.
type ShardedInstance struct {
	// inst searches with an engine that counts every search on load.
	inst *Instance
	load *core.ShardLoad
	// content holds each shard's content counts, fixed at construction.
	content []ShardStat

	// lifecycle owns the memory mappings behind a LoadMmap shard set.
	lifecycle
}

// SetSearchMetrics attaches (or with nil, detaches) the instrument
// bundle fed by subsequent searches.
func (si *ShardedInstance) SetSearchMetrics(m *SearchMetrics) { si.inst.SetSearchMetrics(m) }

// ShardBy partitions the instance into n component shards in memory
// (without going through shard-set files): components are spread by
// balanced document count, as WriteShardSetFiles spreads them. Searches
// run over the instance's own index and answer exactly as the instance
// does; the shards are what Shards reports on. Useful for testing shard
// layouts before persisting them.
func (i *Instance) ShardBy(n int) (*ShardedInstance, error) {
	parts, err := graph.PartitionComponents(i.in, n)
	if err != nil {
		return nil, err
	}
	owner, err := graph.ComponentOwners(i.in.NumComponents(), parts)
	if err != nil {
		return nil, err
	}
	return newShardedInstance(i.eng, owner, n), nil
}

// newShardedInstance wraps eng as a set of n shards, owner mapping each
// component to its shard: searches run on eng and count on the shards.
func newShardedInstance(eng *core.Engine, owner []int32, n int) *ShardedInstance {
	in := eng.Instance()
	load := core.NewShardLoad(n)
	content := make([]ShardStat, n)
	docs, tags := graph.ShardContent(in, owner, n)
	for s := range content {
		content[s].Documents, content[s].Tags = docs[s], tags[s]
	}
	for _, s := range owner {
		content[s].Components++
	}
	inst := &Instance{in: in, ix: eng.Index(), eng: eng.WithShardLoad(owner, load)}
	return &ShardedInstance{inst: inst, load: load, content: content}
}

// NumShards returns the shard count.
func (si *ShardedInstance) NumShards() int { return len(si.content) }

// Stats returns the whole-instance statistics (identical to the
// unsharded instance's: the substrate is shared, the shards partition the
// content).
func (si *ShardedInstance) Stats() Stats { return si.inst.Stats() }

// HasUser reports whether uri names a user (users are shared substrate,
// so every shard can act for any seeker).
func (si *ShardedInstance) HasUser(uri string) bool { return si.inst.HasUser(uri) }

// Extension returns the semantic extension of a keyword (the ontology is
// shared substrate).
func (si *ShardedInstance) Extension(keyword string) []string { return si.inst.Extension(keyword) }

// Shards describes the shard layout: per shard, its content counts and
// the searches that matched a component there with the rounds they ran.
func (si *ShardedInstance) Shards() []ShardStat {
	out := slices.Clone(si.content)
	for s := range out {
		out[s].Searches, out[s].Rounds = si.load.Shard(s)
	}
	return out
}

// Search runs an S3k top-k search; the answer equals the unsharded
// answer.
func (si *ShardedInstance) Search(seekerURI string, keywords []string, opts ...Option) ([]Result, error) {
	rs, _, err := si.SearchInfoed(seekerURI, keywords, opts...)
	return rs, err
}

// SearchInfoed is Search returning termination information as well. A
// search counts on every shard holding a component it matched.
func (si *ShardedInstance) SearchInfoed(seekerURI string, keywords []string, opts ...Option) ([]Result, SearchInfo, error) {
	return si.inst.SearchInfoed(seekerURI, keywords, opts...)
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
// directory), with the shards' postings merged into one index at open.
// With LoadMmap the shared substrate is a view into the mapped manifest
// (the merged index lives on the heap); call Close when the instance is
// retired (after in-flight searches finish) to unmap the files.
func OpenShardSet(manifestPath string, mode LoadMode) (*ShardedInstance, error) {
	s, err := snap.OpenShardSet(manifestPath, snap.LoadMode(mode))
	if err != nil {
		return nil, err
	}
	set := s.Set
	si := newShardedInstance(core.NewEngine(set.Base, set.Index), set.Layout.Owner, len(set.Layout.Shards))
	si.setMapped(s.MappedBytes(), s.Close)
	return si, nil
}
