package core

import (
	"fmt"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/proxcache"
	"s3/internal/score"
	"s3/internal/text"
)

// TestShardExecutorWarmResume covers NewShardExecutor with a cache:
// coordinated searches over one executor per component slice with a
// proximity cache must answer byte-identically to cold executors — on
// the first (cache-filling) pass and on the second (frontier-resuming)
// pass — and the second pass must actually hit the cache.
func TestShardExecutorWarmResume(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 60, 240, 17
	spec, _ := datagen.Twitter(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(in)

	const shards = 2
	ixs := shardIndexes(t, in, ix, shards)
	// One cache per shard.
	caches := make([]*proxcache.Cache, shards)
	for i := range caches {
		caches[i] = proxcache.New(16 << 20)
	}

	seekers, kwSets := queries(in)
	run := func(warm bool) map[string]string {
		out := make(map[string]string)
		for _, seeker := range seekers {
			for _, kws := range kwSets {
				groups, possible, err := ResolveKeywordGroups(in, kws)
				if err != nil {
					t.Fatal(err)
				}
				if !possible {
					continue
				}
				execs := make([]ShardExecutor, shards)
				for i := range execs {
					le := NewShardExecutor(NewEngine(in, ixs[i]), 0)
					if warm {
						le = le.WithProxCache(caches[i])
					}
					execs[i] = le
				}
				sspec := SearchSpec{Seeker: seeker, Groups: groups, K: 5,
					Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}
				sel, stats, err := Coordinate(execs, sspec, CoordOptions{})
				if err != nil {
					t.Fatal(err)
				}
				rs := make([]Result, len(sel))
				for i, c := range sel {
					rs[i] = Result{Doc: c.Doc, URI: in.URIOf(c.Doc), Lower: c.Lower, Upper: c.Upper}
				}
				out[fmt.Sprintf("%d/%v", seeker, kws)] = transcript(rs, stats)
			}
		}
		return out
	}

	cold := run(false)
	fill := run(true)
	resume := run(true)
	if len(cold) == 0 {
		t.Fatal("no queries produced answers")
	}
	for k, want := range cold {
		if fill[k] != want {
			t.Fatalf("%s: cache-filling pass diverged\ncold:\n%s\nfill:\n%s", k, want, fill[k])
		}
		if resume[k] != want {
			t.Fatalf("%s: frontier-resuming pass diverged\ncold:\n%s\nresume:\n%s", k, want, resume[k])
		}
	}
	stores, hits := uint64(0), uint64(0)
	for _, c := range caches {
		st := c.Stats()
		stores += st.Stores
		hits += st.Hits
	}
	if stores == 0 {
		t.Fatal("first warm pass published no checkpoints")
	}
	if hits == 0 {
		t.Fatal("second warm pass resumed nothing from the cache")
	}
}
