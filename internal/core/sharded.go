// Sharded S3k: the fan-out/merge engine over a component-partitioned
// instance.
//
// Components (§5.2) are independent for candidate generation — every
// connection of a candidate document lives in the candidate's own
// component — which makes them the natural unit of horizontal
// partitioning. Social proximity, by contrast, is defined over the whole
// network graph (§3.4 sums *all* paths, including paths through other
// shards' document and tag nodes), so every shard shares one proximity
// substrate: the shards of a ShardedEngine are projections of a single
// base instance, with identical node numbering, transition matrix and
// ontology, differing only in which components' index slices they own.
//
// A sharded search therefore runs lockstep rounds: advance the border
// proximity one layer and, per shard, admit newly discovered components,
// refresh candidate score intervals and compute the shard-local greedy
// selection. The per-shard selections are merged by score interval
// (topks.MergeTopK) and the global stop condition of Algorithm 2 is
// evaluated on the merged state. Because vertical neighbours always share
// a component (and hence a shard), the merged selection, its certainty
// and the dominating-bound test decompose exactly — the sharded answer is
// byte-identical to the single-engine answer, score intervals included
// (property-tested in sharded_test.go). The only non-deterministic stop
// is the wall-clock budget, which is any-time in the single engine too.
//
// The round protocol itself — executor interface, serializable messages,
// coordinator loop — lives in executor.go, and the shard side of it in
// host.go and local.go; ShardedEngine is the all-in-one-process
// deployment: Coordinate over one host executor whose members are the
// shards.
package core

import (
	"fmt"
	"sync/atomic"

	"s3/internal/graph"
	"s3/internal/proxcache"
	"s3/internal/score"
)

// ShardedEngine answers queries over a component-partitioned instance by
// fanning each search out across per-shard engines and merging the
// per-shard answers. It is immutable (counters aside) and safe for
// concurrent Search calls.
type ShardedEngine struct {
	shards []*Engine
	// touched counts, per shard, the searches for which the shard had at
	// least one matching component (the fan-out actually reached it);
	// rounds counts, per shard, the lockstep rounds the shard carried
	// candidate work in. Together they are the load signal a rebalancer
	// consumes.
	touched []atomic.Uint64
	rounds  []atomic.Uint64
}

// NewShardedEngine assembles a sharded engine from per-shard engines.
// Every shard must be built over a projection of the same base instance
// (identical node numbering), and together the shards must own every
// component exactly once. A single unprojected engine forms a valid
// one-shard set.
func NewShardedEngine(shards []*Engine) (*ShardedEngine, error) {
	if err := checkMembers(shards); err != nil {
		return nil, err
	}
	if shards[0].in.OwnedComponents() != nil { // else: alone and owning everything
		if err := checkPartition(shards); err != nil {
			return nil, err
		}
	}
	return &ShardedEngine{
		shards:  shards,
		touched: make([]atomic.Uint64, len(shards)),
		rounds:  make([]atomic.Uint64, len(shards)),
	}, nil
}

// checkPartition builds the component → shard layout of projected shards
// and reports any component owned twice or by no shard. The layout is only
// needed here, once per engine: a search routes discoveries through the
// table of components its query matched (HostExecutor.join).
func checkPartition(shards []*Engine) error {
	layout := make([]int32, shards[0].in.NumComponents())
	for c := range layout {
		layout[c] = -1
	}
	for i, e := range shards {
		for _, c := range e.in.OwnedComponents() {
			if layout[c] != -1 {
				return fmt.Errorf("core: component %d owned by shards %d and %d", c, layout[c], i)
			}
			layout[c] = int32(i)
		}
	}
	for c, s := range layout {
		if s == -1 {
			return fmt.Errorf("core: component %d owned by no shard", c)
		}
	}
	return nil
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// WarmProximity pre-explores a seeker's neighbourhood into the cache over
// the shard set's shared substrate; see Engine.WarmProximity. Warming goes
// through shard 0's engine because sharded searches run their iterator
// over shard 0's projection — the cached checkpoints must be bound to the
// same instance pointer the searches will resume them on.
func (se *ShardedEngine) WarmProximity(pc *proxcache.Cache, seeker graph.NID, params score.Params, maxDepth int) (depth int, seeded bool) {
	return se.shards[0].WarmProximity(pc, seeker, params, maxDepth)
}

// ShardTouches returns, per shard, how many searches fanned out to it
// (had at least one matching component there) over the engine's lifetime.
func (se *ShardedEngine) ShardTouches() []uint64 {
	out := make([]uint64, len(se.touched))
	for i := range se.touched {
		out[i] = se.touched[i].Load()
	}
	return out
}

// ShardRounds returns, per shard, how many lockstep rounds carried
// candidate work on it over the engine's lifetime — the per-shard work
// signal behind /stats and rebalancing.
func (se *ShardedEngine) ShardRounds() []uint64 {
	out := make([]uint64, len(se.rounds))
	for i := range se.rounds {
		out[i] = se.rounds[i].Load()
	}
	return out
}

// Search runs a sharded S3k search. The answer — result set, order and
// score intervals — is identical to Engine.Search over the unpartitioned
// instance; see the package comment for why.
func (se *ShardedEngine) Search(seeker graph.NID, keywords []string, opts Options) ([]Result, Stats, error) {
	return search(se.shards, se.touched, se.rounds, seeker, keywords, opts)
}
