package core

import (
	"runtime"
	"testing"

	"s3/internal/proxcache"
	"s3/internal/score"
)

// warmBattery turns the head of the cold battery into warm searches: each
// seeker asks the next query's keywords against a cache that already
// holds its exploration as deep as that search goes — a session's second
// and later queries, the ones that stay inside the recorded depth.
func warmBattery(tb testing.TB) (*Engine, []coldQuery, *proxcache.Cache) {
	tb.Helper()
	const seekers = 6
	eng, cold := coldBattery(tb, seekers)
	pc := proxcache.New(64 << 20)
	qs := make([]coldQuery, seekers)
	for i, q := range cold {
		next := cold[(i+1)%seekers]
		qs[i] = coldQuery{seeker: q.seeker, keywords: next.keywords, k: next.k}
		// Asked once, the query leaves the depth it needed in the cache.
		opts := Options{K: next.k, Params: score.DefaultParams(), ProxCache: pc}
		if _, _, err := eng.Search(q.seeker, next.keywords, opts); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, qs, pc
}

// TestWarmSearchAllocBudget: a warm search that stays inside the recorded
// depth adopts the checkpoint's snapshots — it copies no vector, so it
// allocates nothing instance-sized and stays within the cold search's
// budget (whose 80 kB is less than one 110 kB vector of this instance).
// Unmeasured under -race, like the cold budget.
func TestWarmSearchAllocBudget(t *testing.T) {
	eng, qs, pc := warmBattery(t)
	opts := Options{Params: score.DefaultParams(), ProxCache: pc}
	run := func() {
		for _, q := range qs {
			opts.K = q.k
			_, st, err := eng.Search(q.seeker, q.keywords, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reason != StopNoMatch && st.ResumedDepth < st.Iterations {
				t.Fatalf("search left the recorded depth: %d rounds, %d recorded", st.Iterations, st.ResumedDepth)
			}
		}
	}
	run()
	if raceEnabled {
		return
	}
	if coldSearchMaxBytes >= 8*eng.in.NumNodes() {
		t.Fatal("the byte budget would admit an instance-sized vector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(3, run) / float64(len(qs))
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs its function once more than asked, to warm up.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(4*len(qs))
	t.Logf("warm search: %.0f allocs, %.0f B", allocs, bytes)
	if allocs > coldSearchMaxAllocs {
		t.Errorf("warm search: %.0f allocs, budget %d", allocs, coldSearchMaxAllocs)
	}
	if bytes > coldSearchMaxBytes {
		t.Errorf("warm search: %.0f B allocated, budget %d", bytes, coldSearchMaxBytes)
	}
}

// BenchmarkWarmSearch is the in-process cost of the warm battery's
// searches: BenchmarkColdSearch minus the exploration, rounds reported
// the same way.
func BenchmarkWarmSearch(b *testing.B) {
	eng, qs, pc := warmBattery(b)
	opts := Options{Params: score.DefaultParams(), ProxCache: pc}
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		opts.K = q.k
		_, st, err := eng.Search(q.seeker, q.keywords, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds += st.Iterations
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
