package core

import (
	"math/rand"
	"runtime"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/text"
)

// coldQuery is one entry of the fixed cold-search battery.
type coldQuery struct {
	seeker   graph.NID
	keywords []string
	k        int
}

// coldBattery builds the serving-scale instance the end-to-end benchmark
// runs on (twitter generator, default size, seed 1: 13,696 nodes) and a
// fixed seeded battery over it (batteryQueries, seed 18).
func coldBattery(tb testing.TB, n int) (*Engine, []coldQuery) {
	tb.Helper()
	spec, _ := datagen.Twitter(datagen.DefaultTwitterOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(in, index.Build(in)), batteryQueries(tb, in, n, 18)
}

// batteryQueries draws n queries over in, in the benchmark's shape:
// connected seekers, single keywords from the common and the rare
// frequency quarter, k 5 and 10.
func batteryQueries(tb testing.TB, in *graph.Instance, n int, seed int64) []coldQuery {
	tb.Helper()
	var usable []string
	for _, k := range in.SortedKeywordsByFrequency() {
		if in.KeywordFrequency(k) >= 2 {
			usable = append(usable, in.Dict().String(k))
		}
	}
	var seekers []graph.NID
	for _, u := range in.Users() {
		if len(in.OutEdges(u)) > 0 {
			seekers = append(seekers, u)
		}
	}
	quarter := len(usable) / 4
	if quarter == 0 || len(seekers) == 0 {
		tb.Fatal("instance too small for a battery")
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]coldQuery, n)
	for i := range qs {
		band := usable[len(usable)-quarter:] // common
		if i%4 == 3 {
			band = usable[:quarter] // rare
		}
		qs[i] = coldQuery{
			seeker:   seekers[rng.Intn(len(seekers))],
			keywords: []string{band[rng.Intn(len(band))]},
			k:        5 + 5*(i%2),
		}
	}
	return qs
}

// Budget of one cold Engine.Search over the battery, proximity cache off:
// the change that introduced it took the battery from 2,115 allocations
// and 3.48 MB a search to 170 and 56 kB.
const (
	coldSearchMaxAllocs = 250
	coldSearchMaxBytes  = 80 << 10
)

// TestColdSearchAllocBudget: a cold search works out of pooled iterator
// vectors and per-search candidate slabs, so what it allocates is a few
// hundred small objects however large the instance is. Under -race the
// runtime allocates on its own (and sync.Pool drops items at random), so
// the battery only runs once, unmeasured.
func TestColdSearchAllocBudget(t *testing.T) {
	eng, qs := coldBattery(t, 32)
	opts := Options{Params: score.DefaultParams()}
	run := func() {
		for _, q := range qs {
			opts.K = q.k
			if _, _, err := eng.Search(q.seeker, q.keywords, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // sizes the engine's iterator pool
	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(3, run) / float64(len(qs))
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs its function once more than asked, to warm up.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(4*len(qs))
	t.Logf("cold search: %.0f allocs, %.0f B", allocs, bytes)
	if allocs > coldSearchMaxAllocs {
		t.Errorf("cold search: %.0f allocs, budget %d", allocs, coldSearchMaxAllocs)
	}
	if bytes > coldSearchMaxBytes {
		t.Errorf("cold search: %.0f B allocated, budget %d", bytes, coldSearchMaxBytes)
	}
}

// BenchmarkColdSearch is the in-process cost of the battery's searches,
// with the rounds a search runs beside it.
func BenchmarkColdSearch(b *testing.B) {
	eng, qs := coldBattery(b, 64)
	opts := Options{Params: score.DefaultParams()}
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
