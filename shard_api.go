package s3

import (
	"slices"

	"s3/internal/graph"
	"s3/internal/snap"
)

// Queryable is the serving surface shared by an Instance (built, loaded
// or a shard set) and a DistributedInstance: everything the query server
// needs to answer searches, report statistics and describe its shard
// layout.
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
	// content counts.
	Shards() []ShardStat
	// SetProxCache attaches a seeker-proximity checkpoint cache consulted
	// and fed by subsequent searches (nil detaches).
	SetProxCache(*ProxCache)
	// SetSearchMetrics attaches the instrument bundle fed by subsequent
	// searches (nil detaches). Safe while searches are in flight.
	SetSearchMetrics(*SearchMetrics)
	// MappedBytes reports how many snapshot bytes back the instance
	// through memory mappings (0 when copy-loaded).
	MappedBytes() int64
	// Close releases the instance's memory mappings, if any. Only call it
	// once no search is executing; idempotent, and a no-op for
	// copy-loaded instances.
	Close() error
}

var _ Queryable = (*Instance)(nil)

// ShardStat is one shard's row of a Queryable: the content the shard's
// components hold. Users are shared by every shard and counted in none.
type ShardStat struct {
	Documents  int
	Components int
	Tags       int
}

// newSubstrate pairs a substrate with its rows for n shards, owner
// mapping each of its components to a shard; a nil owner is one shard
// holding every component. An in-process shard set and a coordinator
// over the same set derive their rows here, so they report the same.
func newSubstrate(in *graph.Instance, owner []int32, n int) substrate {
	if owner == nil {
		owner = make([]int32, in.NumComponents())
	}
	rows := make([]ShardStat, n)
	docs, tags := graph.ShardContent(in, owner, n)
	for s := range rows {
		rows[s].Documents, rows[s].Tags = docs[s], tags[s]
	}
	for _, s := range owner {
		rows[s].Components++
	}
	return substrate{in: in, shards: rows}
}

// Shards describes the shard layout: per shard, its content counts. A
// built or loaded instance is one shard holding everything.
func (s *substrate) Shards() []ShardStat { return slices.Clone(s.shards) }

// ShardBy partitions the instance into n component shards in memory
// (without going through shard-set files): components are spread by
// balanced document count, as WriteShardSetFiles spreads them. Searches
// run over the instance's own index and answer exactly as the instance
// does; the shards are what Shards reports on. Useful for testing shard
// layouts before persisting them. The result maps nothing itself
// (MappedBytes is 0, Close a no-op): a mapped i must outlive it.
func (i *Instance) ShardBy(n int) (*Instance, error) {
	parts, err := graph.PartitionComponents(i.in, n)
	if err != nil {
		return nil, err
	}
	owner, err := graph.ComponentOwners(i.in.NumComponents(), parts)
	if err != nil {
		return nil, err
	}
	return newInstance(i.in, i.ix, owner, n), nil
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
func OpenShardSet(manifestPath string, mode LoadMode) (*Instance, error) {
	s, err := snap.OpenShardSet(manifestPath, snap.LoadMode(mode))
	if err != nil {
		return nil, err
	}
	set := s.Set
	i := newInstance(set.Base, set.Index, set.Layout.Owner, len(set.Layout.Shards))
	i.setMapped(s.MappedBytes(), s.Close)
	return i, nil
}
