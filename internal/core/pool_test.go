package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/proxcache"
	"s3/internal/score"
	"s3/internal/text"
)

func twitterEngine(t *testing.T, users, tweets int, seed int64) *Engine {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = users, tweets, seed
	spec, _ := datagen.Twitter(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(in, index.Build(in))
}

// searchBattery runs the queries() battery over the engine and returns
// one transcript per (seeker, keyword set).
func searchBattery(t *testing.T, e *Engine, opts Options) []string {
	t.Helper()
	seekers, kwSets := queries(e.in)
	var out []string
	for _, u := range seekers {
		for _, kws := range kwSets {
			rs, st, err := e.Search(u, kws, opts)
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, transcript(rs, st))
		}
	}
	return out
}

// TestPooledIteratorEqualsFresh: every search after an engine's first
// runs on a recycled iterator — vectors dirtied by another seeker's
// exploration, cold or resumed from the proximity cache — and must answer
// exactly what an engine that never searched before answers.
func TestPooledIteratorEqualsFresh(t *testing.T) {
	opts := Options{K: 5, Params: score.DefaultParams()}
	used := twitterEngine(t, 60, 240, 1)
	seekers, kwSets := queries(used.in)
	for pass, pc := range []*proxcache.Cache{nil, proxcache.New(1 << 20), nil} {
		o := opts
		o.ProxCache = pc
		for _, u := range seekers {
			for _, kws := range kwSets {
				got, gst, err := used.Search(u, kws, o)
				must(t, err)
				// Same instance, new engine: an empty pool, so a fresh iterator.
				want, wst, err := NewEngine(used.in, used.ix).Search(u, kws, opts)
				must(t, err)
				if transcript(got, gst) != transcript(want, wst) {
					t.Fatalf("pass %d seeker %d %v: pooled iterator answers\n%swant\n%s", pass, u, kws,
						transcript(got, gst), transcript(want, wst))
				}
			}
		}
	}
	// (Under -race sync.Pool drops puts at random.)
	if it, _ := used.iters.Get().(*score.Iterator); it == nil && !raceEnabled {
		t.Fatal("searches returned no iterator to the engine's pool")
	}
}

// TestPooledIteratorsAcrossReload plays a server reload at engine level:
// concurrent searchers each take "the current engine" and swap it, back
// and forth, between two instances of different node counts, each with
// its own proximity cache. Every answer must equal the serial reference
// for the instance it ran on; under -race this is also the check that no
// iterator vector is shared between two searches or two instances, and
// that none is recycled while a round still reads it.
func TestPooledIteratorsAcrossReload(t *testing.T) {
	opts := Options{K: 5, Params: score.DefaultParams()}
	gens := []*Engine{twitterEngine(t, 60, 240, 1), twitterEngine(t, 90, 400, 2)}
	if gens[0].in.NumNodes() == gens[1].in.NumNodes() {
		t.Fatal("the two generations must differ in node count")
	}
	want := [][]string{searchBattery(t, gens[0], opts), searchBattery(t, gens[1], opts)}
	caches := []*proxcache.Cache{proxcache.New(1 << 20), proxcache.New(1 << 20)}

	var current atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				g := current.Add(1) % 2
				o := opts
				if (w+i)%2 == 0 {
					o.ProxCache = caches[g]
				}
				got := searchBattery(t, gens[g], o)
				for q := range got {
					if got[q] != want[g][q] {
						t.Errorf("generation %d query %d: concurrent answer differs from the serial one", g, q)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPooledIteratorHoldsNoCheckpoint: a warm search that stops inside the
// recorded depth ends with its iterator reading a snapshot the cache
// owns. End must hand the pool an iterator that has let go of it: the
// next explorations on that iterator — driven directly, then by cold and
// warm searches of another seeker — write only the iterator's own
// vectors, so the cached entry still answers like a cold search.
func TestPooledIteratorHoldsNoCheckpoint(t *testing.T) {
	// One P, so what End puts in the pool is what the next Get finds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	params := score.DefaultParams()
	opts := Options{K: 5, Params: params}
	// Large enough for saturated, snapshot-form depths.
	e := twitterEngine(t, 150, 600, 5)
	seekers, kwSets := queries(e.in)
	a, b, kws := seekers[0], seekers[1], kwSets[0]
	ref := NewEngine(e.in, e.ix)
	wantRs, wantSt, err := ref.Search(a, kws, opts)
	must(t, err)
	want := transcript(wantRs, wantSt)

	pc := proxcache.New(64 << 20)
	warm := opts
	warm.ProxCache = pc
	// The first run of the search publishes the depth the others resume.
	_, _, err = e.Search(a, kws, warm)
	must(t, err)
	for pass := 0; pass < 3; pass++ {
		rs, st, err := e.Search(a, kws, warm)
		must(t, err)
		if st.ResumedDepth < st.Iterations {
			t.Fatalf("pass %d: the warm search left the recorded depth", pass)
		}
		if got := transcript(rs, st); got != want {
			t.Fatalf("pass %d: warm answer\n%swant\n%s", pass, got, want)
		}
		// Whatever the pool now holds explores another seeker, deeply.
		if it, _ := e.iters.Get().(*score.Iterator); it != nil {
			it.Reset(e.in, params, b, false)
			for d := 0; d < 12 && !it.Done(); d++ {
				it.Step()
			}
			e.iters.Put(it)
		} else if !raceEnabled {
			t.Fatal("the warm search returned no iterator to the pool")
		}
		_, _, err = e.Search(b, kws, opts)
		must(t, err)
		_, _, err = e.Search(b, kws, warm)
		must(t, err)
	}
	if st := pc.Stats(); st.Hits < 3 {
		t.Fatalf("warm searches hit the cache %d times, want ≥ 3", st.Hits)
	}
}

// TestRewindAcrossGoroutines plays the distributed coordinator's hand-off
// under concurrency: each search takes an iterator with Explore on its
// own goroutine, another goroutine steps it ahead (to a depth that varies
// with the query, yielding between steps) and is waited for, then Run
// rewinds and replays it. Every answer must equal the serial cold one;
// under -race this is the check that the hand-off orders the stepping
// goroutine's writes before the search's reads. An iterator explored for
// another seeker is refused.
func TestRewindAcrossGoroutines(t *testing.T) {
	opts := Options{K: 5, Params: score.DefaultParams()}
	e := twitterEngine(t, 150, 600, 5)
	want := searchBattery(t, e, opts)
	seekers, kwSets := queries(e.in)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := 0
			for _, u := range seekers {
				for _, kws := range kwSets {
					it := e.Explore(u, opts.Params)
					depth := (w + 3*q) % 20
					stepped := make(chan struct{})
					go func() {
						defer close(stepped)
						for it.N() < depth && !it.Done() {
							it.Step()
							runtime.Gosched()
						}
					}()
					<-stepped
					rs, st, err := exploredSearch(e, u, kws, opts, it)
					if err != nil {
						t.Error(err)
						return
					}
					if got := transcript(rs, st); got != want[q] {
						t.Errorf("worker %d query %d (explored to %d): answer\n%swant\n%s", w, q, depth, got, want[q])
						return
					}
					q++
				}
			}
		}(w)
	}
	wg.Wait()

	spec, _, err := Query(e.in, seekers[0], kwSets[0], opts.K, opts.Params, nil)
	must(t, err)
	if _, _, err := e.Run(spec, CoordOptions{}, nil, e.Explore(seekers[1], opts.Params)); err == nil {
		t.Fatal("Run took an iterator explored for another seeker")
	}
}
