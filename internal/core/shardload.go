package core

import "sync/atomic"

// ShardLoad is the per-shard load signal of a component-partitioned set:
// per shard, the searches that matched a component the shard owns and the
// rounds those searches ran. An in-process shard set (Engine.WithShardLoad)
// and a distributed coordinator both count with it, from the matched list
// of the search's executor (LocalExecutor.Matched), so their per-shard
// rows mean the same. It is safe for concurrent use.
type ShardLoad struct {
	searches, rounds []atomic.Uint64
}

// NewShardLoad returns zeroed counters for n shards.
func NewShardLoad(n int) *ShardLoad {
	return &ShardLoad{searches: make([]atomic.Uint64, n), rounds: make([]atomic.Uint64, n)}
}

// Add counts one search that matched the components comps and ran rounds
// rounds: every shard owning one of the components (owner maps a
// component to its shard) gains the search and its rounds, once.
func (l *ShardLoad) Add(owner, comps []int32, rounds int) {
	counted := make([]bool, len(l.searches))
	for _, c := range comps {
		if s := owner[c]; !counted[s] {
			counted[s] = true
			l.searches[s].Add(1)
			l.rounds[s].Add(uint64(rounds))
		}
	}
}

// Shard returns shard s's search and round counts.
func (l *ShardLoad) Shard(s int) (searches, rounds uint64) {
	return l.searches[s].Load(), l.rounds[s].Load()
}
