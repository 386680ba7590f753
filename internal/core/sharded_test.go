package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/proxcache"
	"s3/internal/score"
	"s3/internal/text"
)

// buildSharded partitions an instance into n component shards and wires a
// ShardedEngine over the projections.
func buildSharded(t testing.TB, in *graph.Instance, ix *index.Index, n int) *ShardedEngine {
	t.Helper()
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, n)
	for i, comps := range parts {
		proj, err := in.ProjectComponents(comps)
		if err != nil {
			t.Fatal(err)
		}
		pix, err := ix.Project(proj)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = NewEngine(proj, pix)
	}
	se, err := NewShardedEngine(engines)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// transcript renders results and stats so two searches can be compared
// byte for byte (score intervals via their exact float bits).
func transcript(rs []Result, stats Stats) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "reason=%s iter=%d reached=%d matched=%d admitted=%d cands=%d\n",
		stats.Reason, stats.Iterations, stats.NodesReached,
		stats.ComponentsMatched, stats.ComponentsReached, stats.Candidates)
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %s %x %x\n", r.Doc, r.URI, math.Float64bits(r.Lower), math.Float64bits(r.Upper))
	}
	return b.String()
}

// queries picks a battery of rare/mid/common keywords (single and
// conjunctive) for the first few users.
func queries(in *graph.Instance) (seekers []graph.NID, kwSets [][]string) {
	kws := in.SortedKeywordsByFrequency()
	var picks []string
	for _, i := range []int{0, len(kws) / 2, len(kws) - 1} {
		if len(kws) > 0 {
			picks = append(picks, in.Dict().String(kws[i]))
		}
	}
	for _, kw := range picks {
		kwSets = append(kwSets, []string{kw})
	}
	if len(picks) >= 2 {
		kwSets = append(kwSets, []string{picks[1], picks[2]})
	}
	kwSets = append(kwSets, []string{"no-such-keyword-anywhere"})
	users := in.Users()
	for s := 0; s < len(users) && s < 4; s++ {
		seekers = append(seekers, users[s])
	}
	return seekers, kwSets
}

// TestShardedSearchEqualsUnsharded is the answer-equivalence property
// test of the shard-set design: for N ∈ {1, 2, 4, 7}, sharded search must
// return byte-identical results and score intervals to the single-engine
// search, across generated datasets and query shapes. Stats are part of
// the contract: every field but Elapsed must agree as well — cold, while a
// proximity cache fills, and when it resumes (ResumedDepth included).
func TestShardedSearchEqualsUnsharded(t *testing.T) {
	type dataset struct {
		name string
		spec graph.Spec
	}
	var datasets []dataset
	for _, seed := range []int64{1, 42} {
		o := datagen.DefaultTwitterOptions()
		o.Users, o.Tweets, o.Seed = 60, 240, seed
		spec, _ := datagen.Twitter(o)
		datasets = append(datasets, dataset{fmt.Sprintf("twitter/seed=%d", seed), spec})
	}
	{
		o := datagen.DefaultVodkasterOptions()
		o.Users, o.Movies = 50, 30
		datasets = append(datasets, dataset{"vodkaster", datagen.Vodkaster(o)})
	}
	{
		o := datagen.DefaultYelpOptions()
		o.Users, o.Businesses = 50, 30
		datasets = append(datasets, dataset{"yelp", datagen.Yelp(o)})
	}

	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			in, err := graph.BuildSpec(ds.spec, text.Analyzer{Lang: text.None})
			if err != nil {
				t.Fatal(err)
			}
			ix := index.Build(in)
			single := NewEngine(in, ix)
			seekers, kwSets := queries(in)

			for _, n := range []int{1, 2, 4, 7} {
				se := buildSharded(t, in, ix, n)
				// One cache per engine, fed the same query sequence: pass 0
				// runs cold (no cache), pass 1 fills, pass 2 resumes.
				wantPC, gotPC := proxcache.New(16<<20), proxcache.New(16<<20)
				resumed := false
				for pass := 0; pass < 3; pass++ {
					for _, seeker := range seekers {
						for _, kws := range kwSets {
							for _, opts := range []Options{
								{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}},
								{K: 2, Params: score.Params{Gamma: 2, Eta: 0.5}},
								{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}, MaxIterations: 3},
							} {
								wantOpts, gotOpts := opts, opts
								if pass > 0 {
									wantOpts.ProxCache, gotOpts.ProxCache = wantPC, gotPC
								}
								want, wantStats, err1 := single.Search(seeker, kws, wantOpts)
								got, gotStats, err2 := se.Search(seeker, kws, gotOpts)
								if (err1 == nil) != (err2 == nil) {
									t.Fatalf("n=%d seeker=%s kws=%v: errors diverge: %v vs %v",
										n, in.URIOf(seeker), kws, err1, err2)
								}
								if err1 != nil {
									continue
								}
								w, g := transcript(want, wantStats), transcript(got, gotStats)
								if w != g {
									t.Fatalf("n=%d pass=%d seeker=%s kws=%v k=%d:\nunsharded:\n%s\nsharded:\n%s",
										n, pass, in.URIOf(seeker), kws, opts.K, w, g)
								}
								wantStats.Elapsed, gotStats.Elapsed = 0, 0
								if wantStats != gotStats {
									t.Fatalf("n=%d pass=%d seeker=%s kws=%v k=%d: stats diverge:\nunsharded: %+v\nsharded:   %+v",
										n, pass, in.URIOf(seeker), kws, opts.K, wantStats, gotStats)
								}
								resumed = resumed || gotStats.ResumedDepth > 0
							}
						}
					}
				}
				if !resumed {
					t.Fatalf("n=%d: no search resumed from the warm cache", n)
				}
			}
		})
	}
}

// TestShardedEngineValidation exercises the shard-set invariants.
func TestShardedEngineValidation(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 30, 100, 5
	spec, _ := datagen.Twitter(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(in)

	if _, err := NewShardedEngine(nil); err == nil {
		t.Error("empty shard set accepted")
	}
	// An unprojected engine next to another shard owns overlapping
	// components.
	full := NewEngine(in, ix)
	if _, err := NewShardedEngine([]*Engine{full, full}); err == nil {
		t.Error("unprojected multi-shard set accepted")
	}
	// Missing components must be rejected.
	parts, err := graph.PartitionComponents(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := in.ProjectComponents(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	pix, err := ix.Project(proj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedEngine([]*Engine{NewEngine(proj, pix)}); err == nil {
		t.Error("shard set with unowned components accepted")
	}
	// Overlapping ownership must be rejected.
	if _, err := NewShardedEngine([]*Engine{NewEngine(proj, pix), NewEngine(proj, pix)}); err == nil {
		t.Error("shard set with doubly-owned components accepted")
	}
	// A single unprojected shard is the degenerate valid set.
	se, err := NewShardedEngine([]*Engine{full})
	if err != nil {
		t.Fatalf("single unprojected shard rejected: %v", err)
	}
	if se.NumShards() != 1 {
		t.Errorf("NumShards = %d", se.NumShards())
	}
}
