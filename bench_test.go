// Benchmarks regenerating the paper's evaluation (§5): one benchmark per
// table/figure, plus ablation and serving-path benches. Absolute
// numbers depend on the host and on the synthetic scale; performance
// claims come from benchmark/ (README, "Development").
//
// Run with: go test -bench=. -benchmem
package s3

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"s3/internal/bench"
	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/text"
	"s3/internal/topks"
)

// Benchmark-scale datasets (≈¼ of the cmd/s3bench defaults), built once.
var (
	benchOnce sync.Once
	benchI1   *bench.Dataset
	benchI2   *bench.Dataset
	benchI3   *bench.Dataset
)

func datasets(b *testing.B) (*bench.Dataset, *bench.Dataset, *bench.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		t := datagen.DefaultTwitterOptions()
		t.Users, t.Tweets = 600, 2400
		spec, _ := datagen.Twitter(t)
		benchI1 = bench.NewDataset("I1", mustBuild(spec))

		v := datagen.DefaultVodkasterOptions()
		v.Users, v.Movies = 300, 220
		benchI2 = bench.NewDataset("I2", mustBuild(datagen.Vodkaster(v)))

		y := datagen.DefaultYelpOptions()
		y.Users, y.Businesses = 500, 300
		benchI3 = bench.NewDataset("I3", mustBuild(datagen.Yelp(y)))
	})
	return benchI1, benchI2, benchI3
}

func mustBuild(spec graph.Spec) *graph.Instance {
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		panic(err)
	}
	return in
}

// BenchmarkFig4_InstanceStats measures the cost of building an instance
// end to end (graph + saturation + matrix + components) — the substrate
// behind Figure 4's statistics.
func BenchmarkFig4_InstanceStats(b *testing.B) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = 300, 1200
	spec, _ := datagen.Twitter(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := mustBuild(spec)
		if in.Stats().Users != o.Users {
			b.Fatal("bad build")
		}
	}
}

// timeWorkloads runs Search over pre-built workload queries, one query per
// benchmark op (round-robin).
func timeWorkloads(b *testing.B, d *bench.Dataset, id bench.WorkloadID, gamma float64) {
	b.Helper()
	w, err := bench.BuildWorkload(d.In, id, 16, 42)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{K: id.K, Params: score.Params{Gamma: gamma, Eta: 0.8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		if _, _, err := d.Core.Search(q.Seeker, q.Keywords, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func timeTopkS(b *testing.B, d *bench.Dataset, id bench.WorkloadID, alpha float64) {
	b.Helper()
	w, err := bench.BuildWorkload(d.In, id, 16, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		kws := d.KeywordIDs(q.Keywords)
		if _, _, err := d.TopkS.Search(q.Seeker, kws, topks.Options{K: id.K, Alpha: alpha}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_QueryTimesTwitter regenerates Figure 5: S3k query times on
// the Twitter-like instance for each workload and γ, against TopkS for
// each α.
func BenchmarkFig5_QueryTimesTwitter(b *testing.B) {
	i1, _, _ := datasets(b)
	for _, id := range bench.PaperWorkloads() {
		for _, gamma := range []float64{1.25, 1.5, 2} {
			b.Run(fmt.Sprintf("S3k/w=%s/gamma=%.4g", id, gamma), func(b *testing.B) {
				timeWorkloads(b, i1, id, gamma)
			})
		}
		for _, alpha := range []float64{0.25, 0.5, 0.75} {
			b.Run(fmt.Sprintf("TopkS/w=%s/alpha=%.4g", id, alpha), func(b *testing.B) {
				timeTopkS(b, i1, id, alpha)
			})
		}
	}
}

// BenchmarkFig5b_QueryTimesVodkaster regenerates the I2 sweep the paper
// summarises as "results on the smaller instance I2 are similar".
func BenchmarkFig5b_QueryTimesVodkaster(b *testing.B) {
	_, i2, _ := datasets(b)
	for _, id := range bench.PaperWorkloads() {
		b.Run(fmt.Sprintf("S3k/w=%s/gamma=1.5", id), func(b *testing.B) {
			timeWorkloads(b, i2, id, 1.5)
		})
		b.Run(fmt.Sprintf("TopkS/w=%s/alpha=0.5", id), func(b *testing.B) {
			timeTopkS(b, i2, id, 0.5)
		})
	}
}

// BenchmarkFig6_QueryTimesYelp regenerates Figure 6 (the γ/α sweep on I3).
func BenchmarkFig6_QueryTimesYelp(b *testing.B) {
	_, _, i3 := datasets(b)
	for _, id := range bench.PaperWorkloads() {
		for _, gamma := range []float64{1.25, 1.5, 2} {
			b.Run(fmt.Sprintf("S3k/w=%s/gamma=%.4g", id, gamma), func(b *testing.B) {
				timeWorkloads(b, i3, id, gamma)
			})
		}
		for _, alpha := range []float64{0.25, 0.5, 0.75} {
			b.Run(fmt.Sprintf("TopkS/w=%s/alpha=%.4g", id, alpha), func(b *testing.B) {
				timeTopkS(b, i3, id, alpha)
			})
		}
	}
}

// BenchmarkFig7_VaryK regenerates Figure 7: single-keyword workloads with
// k ∈ {1, 5, 10, 50} under γ ∈ {1.5, 4} on I1.
func BenchmarkFig7_VaryK(b *testing.B) {
	i1, _, _ := datasets(b)
	for _, id := range bench.KSweepWorkloads() {
		for _, gamma := range []float64{1.5, 4} {
			b.Run(fmt.Sprintf("w=%s/gamma=%.4g", id, gamma), func(b *testing.B) {
				timeWorkloads(b, i1, id, gamma)
			})
		}
	}
}

// BenchmarkFig8_Quality regenerates Figure 8's comparison measures; the
// measured fractions are reported as custom benchmark metrics
// (graph_reach, sem_reach, l1, intersection — all percentages).
func BenchmarkFig8_Quality(b *testing.B) {
	i1, i2, i3 := datasets(b)
	for _, d := range []*bench.Dataset{i1, i2, i3} {
		b.Run(d.Name, func(b *testing.B) {
			id := bench.WorkloadID{Freq: bench.Common, L: 1, K: 5}
			w, err := bench.BuildWorkload(d.In, id, 16, 7)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{Params: score.Params{Gamma: 1.5, Eta: 0.8}}
			var acc bench.Quality
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := w.Queries[i%len(w.Queries)]
				r, err := bench.CompareQuery(d, q, id.K, opts, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				acc.GraphReach += r.GraphReach
				acc.SemReach += r.SemReach
				acc.L1 += r.L1
				acc.Intersection += r.Intersection
				n++
			}
			fn := float64(n)
			b.ReportMetric(100*acc.GraphReach/fn, "graph_reach_%")
			b.ReportMetric(100*acc.SemReach/fn, "sem_reach_%")
			b.ReportMetric(100*acc.L1/fn, "l1_%")
			b.ReportMetric(100*acc.Intersection/fn, "intersection_%")
		})
	}
}

// --- Ablation benches ---

// BenchmarkAblation_AnytimeBudget measures the any-time mode of Theorem
// 4.3: capped exploration depth versus running to the provable stop.
func BenchmarkAblation_AnytimeBudget(b *testing.B) {
	i1, _, _ := datasets(b)
	w, err := bench.BuildWorkload(i1.In, bench.WorkloadID{Freq: bench.Common, L: 1, K: 10}, 16, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, maxIter := range []int{2, 4, 0} {
		name := fmt.Sprintf("maxIter=%d", maxIter)
		if maxIter == 0 {
			name = "maxIter=exact"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{K: 10, Params: score.Params{Gamma: 1.5, Eta: 0.8}, MaxIterations: maxIter}
			for i := 0; i < b.N; i++ {
				q := w.Queries[i%len(w.Queries)]
				if _, _, err := i1.Core.Search(q.Seeker, q.Keywords, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_IndexBuild isolates the connection-index fixpoint —
// the price paid once per instance for the §5.2 pruning.
func BenchmarkAblation_IndexBuild(b *testing.B) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = 300, 1200
	spec, _ := datagen.Twitter(o)
	in := mustBuild(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := index.Build(in); ix == nil {
			b.Fatal("nil index")
		}
	}
}

// --- Serving-path benches (the s3serve subsystem) ---

// BenchmarkSpecRebuild measures the legacy cold-start path: decoding a
// spec and re-running the entire build pipeline (validation, ontology
// saturation, matrix normalisation, component partition) plus the
// connection-index fixpoint — everything a process must repeat today
// before it can answer its first query.
func BenchmarkSpecRebuild(b *testing.B) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = 300, 1200
	spec, _ := datagen.Twitter(o)
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := BuildFromSpec(bytes.NewReader(data), Raw)
		if err != nil {
			b.Fatal(err)
		}
		if inst.Stats().Users != 300 {
			b.Fatal("bad rebuild")
		}
	}
}

// BenchmarkBuildInstance times what s3gen does between generating a spec
// and writing its files — graph.BuildSpec then index.Build — at the s3gen
// default sizes and at four times them. Construction is linear in the
// instance, so ns/edge (time over Figure 4's edge count) should read about
// the same at both scales; a quadratic coming back shows as ns/edge rising
// with scale.
func BenchmarkBuildInstance(b *testing.B) {
	for _, ds := range []struct {
		name string
		spec func(scale int) graph.Spec
	}{
		{"twitter", func(scale int) graph.Spec {
			o := datagen.DefaultTwitterOptions()
			o.Users, o.Tweets = scale*o.Users, scale*o.Tweets
			spec, _ := datagen.Twitter(o)
			return spec
		}},
		{"vodkaster", func(scale int) graph.Spec {
			o := datagen.DefaultVodkasterOptions()
			o.Users, o.Movies = scale*o.Users, scale*o.Movies
			return datagen.Vodkaster(o)
		}},
		{"yelp", func(scale int) graph.Spec {
			o := datagen.DefaultYelpOptions()
			o.Users, o.Businesses = scale*o.Users, scale*o.Businesses
			return datagen.Yelp(o)
		}},
	} {
		for _, scale := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/scale=%d", ds.name, scale), func(b *testing.B) {
				spec := ds.spec(scale)
				edges := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in := mustBuild(spec)
					if ix := index.Build(in); ix.NumEvents() == 0 {
						b.Fatal("empty index")
					}
					edges = in.Stats().Edges
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
			})
		}
	}
}

// BenchmarkSnapshotWrite measures serialisation cost (the price paid once
// per build or reload cycle).
func BenchmarkSnapshotWrite(b *testing.B) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = 300, 1200
	spec, _ := datagen.Twitter(o)
	var specBuf bytes.Buffer
	if err := spec.Encode(&specBuf); err != nil {
		b.Fatal(err)
	}
	inst, err := BuildFromSpec(&specBuf, Raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := inst.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkAblation_UITConvert isolates the S3 → UIT conversion used by
// the baseline.
func BenchmarkAblation_UITConvert(b *testing.B) {
	i1, _, _ := datasets(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if u := topks.Convert(i1.In); u == nil {
			b.Fatal("nil conversion")
		}
	}
}

// BenchmarkAblation_ProximityIteration isolates one borderProx matrix
// step — the §5.2 kernel that dominates S3k's exploration cost.
func BenchmarkAblation_ProximityIteration(b *testing.B) {
	i1, _, _ := datasets(b)
	seeker := i1.In.Users()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := score.NewIterator(i1.In, score.Params{Gamma: 1.5, Eta: 0.8}, seeker)
		for n := 0; n < 5; n++ {
			it.Step()
		}
	}
}

// BenchmarkAblation_SemanticExtension compares query answering with the
// ontology in play (class keywords whose Ext fans out to entities) versus
// plain content keywords of similar frequency.
func BenchmarkAblation_SemanticExtension(b *testing.B) {
	i1, _, _ := datasets(b)
	// A class keyword with a non-trivial extension.
	classKw := ""
	for _, kw := range i1.In.SortedKeywordsByFrequency() {
		s := i1.In.Dict().String(kw)
		if len(s) > 6 && s[:6] == "class-" {
			if len(i1.In.Ontology().Ext(kw)) > 1 {
				classKw = s
				break
			}
		}
	}
	if classKw == "" {
		b.Skip("no class keyword present in content")
	}
	seeker := i1.In.Users()[0]
	opts := core.Options{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
	b.Run("with-extension", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := i1.Core.Search(seeker, []string{classKw}, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
