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

// TestCachedSearchEqualsUncached is the cached-path correctness property:
// with a shared proximity cache enabled — including cross-query checkpoint
// reuse between queries of the same seeker, cold and warm passes, and
// depth-capped any-time stops — Engine.Search, and Coordinate over N ∈
// {1, 2, 4} executors over component slices of the index, must return
// byte-identical answers (documents, order, score-interval float bits)
// and statistics to the uncached single engine.
func TestCachedSearchEqualsUncached(t *testing.T) {
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
			optsList := []Options{
				{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}},
				{K: 2, Params: score.Params{Gamma: 2, Eta: 0.5}},
				{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}, MaxIterations: 3},
			}

			// Uncached single-engine reference transcripts.
			type queryID struct {
				seeker graph.NID
				kws    int
				opt    int
			}
			want := make(map[queryID]string)
			for _, seeker := range seekers {
				for ki, kws := range kwSets {
					for oi, opts := range optsList {
						rs, stats, err := single.Search(seeker, kws, opts)
						if err != nil {
							t.Fatal(err)
						}
						want[queryID{seeker, ki, oi}] = transcript(rs, stats)
					}
				}
			}

			check := func(label string, search func(graph.NID, []string, Options) ([]Result, Stats, error)) {
				t.Helper()
				// One cache shared by the whole battery: queries of the same
				// seeker deepen and reuse each other's checkpoints, and the
				// second pass runs fully warm.
				pc := proxcache.New(64 << 20)
				for pass := 0; pass < 2; pass++ {
					for _, seeker := range seekers {
						for ki, kws := range kwSets {
							for oi, opts := range optsList {
								opts.ProxCache = pc
								rs, stats, err := search(seeker, kws, opts)
								if err != nil {
									t.Fatal(err)
								}
								got := transcript(rs, stats)
								if got != want[queryID{seeker, ki, oi}] {
									t.Fatalf("%s pass=%d seeker=%s kws=%v opt=%d:\nuncached:\n%s\ncached:\n%s",
										label, pass, in.URIOf(seeker), kws, oi,
										want[queryID{seeker, ki, oi}], got)
								}
							}
						}
					}
				}
				st := pc.Stats()
				if st.Hits == 0 || st.Stores == 0 {
					t.Fatalf("%s: cache never exercised (hits=%d stores=%d)", label, st.Hits, st.Stores)
				}
			}

			check("single", single.Search)
			for _, n := range []int{1, 2, 4} {
				ixs := shardIndexes(t, in, ix, n)
				check(fmt.Sprintf("sharded/n=%d", n), func(seeker graph.NID, kws []string, opts Options) ([]Result, Stats, error) {
					return coordinated(in, ixs, seeker, kws, opts)
				})
			}
		})
	}
}

// TestWarmProximitySeedsSearch: an explicitly warmed cache serves the next
// search (cache hit), deepens monotonically, and leaves answers
// byte-identical.
func TestWarmProximitySeedsSearch(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 60, 240, 7
	spec, _ := datagen.Twitter(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(in)
	eng := NewEngine(in, ix)
	seekers, kwSets := queries(in)
	seeker, kws := seekers[0], kwSets[0]
	params := score.DefaultParams()
	opts := Options{K: 5, Params: params}

	want, wantStats, err := eng.Search(seeker, kws, opts)
	if err != nil {
		t.Fatal(err)
	}

	pc := proxcache.New(64 << 20)
	if d, seeded := eng.WarmProximity(pc, seeker, params, 4); d != 4 || !seeded {
		t.Fatalf("WarmProximity = (%d, %v), want (4, true)", d, seeded)
	}
	// Warming again shallower is a no-op that reports the covered depth.
	if d, seeded := eng.WarmProximity(pc, seeker, params, 2); d != 4 || seeded {
		t.Fatalf("re-warm = (%d, %v), want (4, false)", d, seeded)
	}
	if d, seeded := eng.WarmProximity(pc, seeker, params, 6); d != 6 || !seeded {
		t.Fatalf("deepen = (%d, %v), want (6, true)", d, seeded)
	}
	// Non-user and nil-cache warms are rejected.
	if d, seeded := eng.WarmProximity(pc, graph.NID(in.NumNodes()), params, 3); d != 0 || seeded {
		t.Fatalf("out-of-range seeker warmed to (%d, %v)", d, seeded)
	}
	if d, seeded := eng.WarmProximity(nil, seeker, params, 3); d != 0 || seeded {
		t.Fatalf("nil cache warmed to (%d, %v)", d, seeded)
	}

	opts.ProxCache = pc
	got, gotStats, err := eng.Search(seeker, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if transcript(got, gotStats) != transcript(want, wantStats) {
		t.Fatalf("warmed search diverged:\nuncached:\n%s\nwarmed:\n%s",
			transcript(want, wantStats), transcript(got, gotStats))
	}
	if st := pc.Stats(); st.Hits == 0 {
		t.Fatalf("warmed search did not hit the cache: %+v", st)
	}
}
