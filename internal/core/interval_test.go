package core

import (
	"math"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/proxcache"
	"s3/internal/score"
	"s3/internal/text"
)

// checkedExecutor is a LocalExecutor that runs check after every Round
// and Finalize, with the candidates' intervals as that call left them.
type checkedExecutor struct {
	*LocalExecutor
	check func(x *LocalExecutor)
}

func (c checkedExecutor) Round() (RoundInfo, error) {
	info, err := c.LocalExecutor.Round()
	c.check(c.LocalExecutor)
	return info, err
}

func (c checkedExecutor) Finalize() (RoundInfo, error) {
	info, err := c.LocalExecutor.Finalize()
	c.check(c.LocalExecutor)
	return info, err
}

// ulps returns n units in the last place of x.
func ulps(x float64, n int) float64 { return float64(n) * (math.Nextafter(x, math.Inf(1)) - x) }

// TestIntervalsContainExactScore is the per-source tail's soundness
// check: after every round of a search, every candidate's [Lower, Upper]
// contains its exact score — the score under ExactProximity explored
// until the uniform tail is below 1e-17 — to within a few ulps. It runs
// on the three generators' graph shapes at γ ∈ {1.25, 1.5, 4}, cold, and
// warm from a checkpoint that ends past a saturated depth the search
// replays before it propagates on: there the per-source tail reads the
// border masses the checkpoint recorded.
func TestIntervalsContainExactScore(t *testing.T) {
	tw := datagen.DefaultTwitterOptions()
	tw.Users, tw.Tweets, tw.Seed = 300, 1200, 7
	vk := datagen.DefaultVodkasterOptions()
	vk.Users, vk.Movies, vk.Seed = 250, 120, 8
	yp := datagen.DefaultYelpOptions()
	yp.Users, yp.Businesses, yp.Seed = 300, 120, 9
	twSpec, _ := datagen.Twitter(tw)
	specs := []struct {
		name string
		spec graph.Spec
	}{{"twitter", twSpec}, {"vodkaster", datagen.Vodkaster(vk)}, {"yelp", datagen.Yelp(yp)}}

	for _, ds := range specs {
		t.Run(ds.name, func(t *testing.T) {
			in, err := graph.BuildSpec(ds.spec, text.Analyzer{Lang: text.None})
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(in, index.Build(in))
			qs := batteryQueries(t, in, 8, 41)
			checked, crossed := 0, 0
			for _, gamma := range []float64{1.25, 1.5, 4} {
				params := score.Params{Gamma: gamma, Eta: 0.8}
				for _, q := range qs {
					groups, ok, err := ResolveKeywordGroups(in, q.keywords)
					if err != nil || !ok {
						t.Fatalf("keywords %v: ok=%v err=%v", q.keywords, ok, err)
					}
					exact := score.ExactProximity(in, params, q.seeker, 1e-17)
					check := func(x *LocalExecutor) {
						for _, c := range x.cands {
							s := x.sc.Exact(c.d, exact)
							if c.lower > s+ulps(s, 4) || c.upper < s-ulps(s, 4) {
								t.Fatalf("γ=%v seeker=%d %v: round %d: exact score %v of %d outside [%v, %v]",
									gamma, q.seeker, q.keywords, x.it.N(), s, c.d, c.lower, c.upper)
							}
							checked++
						}
					}
					spec := SearchSpec{Seeker: q.seeker, Groups: groups, K: q.k, Params: params}
					x := checkedExecutor{NewShardExecutor(eng, 0), check}
					_, cold, err := Coordinate([]ShardExecutor{x}, spec, CoordOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// Warm half-way: a search stopped at depth publishes its
					// frontier, and the next one resumes a checkpoint whose
					// layers reach past a saturated depth, then propagates
					// from the checkpoint's last border.
					depth := cold.Iterations / 2
					if depth < 2 {
						continue
					}
					pc := proxcache.New(64 << 20)
					if _, _, err := eng.Search(q.seeker, q.keywords, Options{K: q.k, Params: params, MaxIterations: depth, ProxCache: pc}); err != nil {
						t.Fatal(err)
					}
					cp := pc.Get(proxcache.Key{Seeker: q.seeker, Params: params}, in)
					x = checkedExecutor{&LocalExecutor{e: eng, pc: pc}, check}
					_, warm, err := Coordinate([]ShardExecutor{x}, spec, CoordOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if warm.Iterations != cold.Iterations || x.resumedN != cp.N() {
						t.Fatalf("γ=%v seeker=%d %v: warm search ran %d rounds resuming %d, cold %d",
							gamma, q.seeker, q.keywords, warm.Iterations, x.resumedN, cold.Iterations)
					}
					// A snapshot-form layer costs a dense vector.
					if cp.Bytes() >= int64(8*in.NumNodes()) && warm.Iterations > cp.N() {
						crossed++
					}
				}
			}
			t.Logf("%d candidate-rounds checked, %d warm searches crossed a saturated depth", checked, crossed)
			if checked == 0 || crossed == 0 {
				t.Fatalf("%d candidate-rounds checked, %d warm searches crossed a saturated depth", checked, crossed)
			}
		})
	}
}
