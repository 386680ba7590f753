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

// shardIndexes slices ix into n indexes over in by PartitionComponents,
// as a shard set's files slice it.
func shardIndexes(t testing.TB, in *graph.Instance, ix *index.Index, n int) []*index.Index {
	t.Helper()
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := graph.ComponentOwners(in.NumComponents(), parts)
	if err != nil {
		t.Fatal(err)
	}
	flats := index.Split(in, ix.Flat(), owner, n)
	ixs := make([]*index.Index, n)
	for s := range ixs {
		if ixs[s], err = index.FromFlat(in, flats[s]); err != nil {
			t.Fatal(err)
		}
	}
	return ixs
}

// coordinated answers a query the way Engine.Search does, but with
// Coordinate over one executor per index — the topology a benchmark probe
// still runs. The executors share opts.ProxCache; ResumedDepth is the
// first one's.
func coordinated(in *graph.Instance, ixs []*index.Index, seeker graph.NID, keywords []string, opts Options) ([]Result, Stats, error) {
	if err := checkQuery(in, seeker, opts.K); err != nil {
		return nil, Stats{}, err
	}
	groups, possible, err := ResolveKeywordGroups(in, keywords)
	if err != nil || !possible {
		return nil, Stats{Reason: StopNoMatch}, err
	}
	xs := make([]*LocalExecutor, len(ixs))
	execs := make([]ShardExecutor, len(ixs))
	for i, ix := range ixs {
		xs[i] = &LocalExecutor{e: NewEngine(in, ix), pc: opts.ProxCache}
		execs[i] = xs[i]
	}
	sel, stats, err := Coordinate(execs,
		SearchSpec{Seeker: seeker, Groups: groups, K: opts.K, Params: opts.Params},
		CoordOptions{MaxIterations: opts.MaxIterations, Budget: opts.Budget})
	if err != nil {
		return nil, stats, err
	}
	stats.ResumedDepth = xs[0].resumedN
	rs := make([]Result, len(sel))
	for i, c := range sel {
		rs[i] = Result{Doc: c.Doc, URI: in.URIOf(c.Doc), Lower: c.Lower, Upper: c.Upper}
	}
	return rs, stats, nil
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

// TestShardedSearchEqualsUnsharded is the answer-equivalence property of
// Coordinate's merge: for N ∈ {1, 2, 4, 7}, Coordinate over one executor
// per component slice of the index must return byte-identical results and
// score intervals to Engine.Search, across generated datasets and query
// shapes. Stats are part of the contract: every field but Elapsed must
// agree as well — cold, while a proximity cache fills, and when it
// resumes (ResumedDepth included).
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
				ixs := shardIndexes(t, in, ix, n)
				// One cache per topology, fed the same query sequence: pass 0
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
								got, gotStats, err2 := coordinated(in, ixs, seeker, kws, gotOpts)
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
