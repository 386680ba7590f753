package graph_test

import (
	"fmt"
	"runtime"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// twitterSpec is the spec of `s3gen -dataset twitter -seed 1` at the
// given scale.
func twitterSpec(scale int) graph.Spec {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets = scale*o.Users, scale*o.Tweets
	spec, _ := datagen.Twitter(o)
	return spec
}

// buildSpecMaxMB bounds what graph.BuildSpec allocates over the twitter
// scale-1 spec, in MB (10⁶ B).
const buildSpecMaxMB = 12

// TestBuildSpecAllocBudget bounds the bytes graph.BuildSpec allocates at
// twitter scale 1. Not parallel: the figure is a difference of
// whole-process readings. Not measured under the race detector, whose
// runtime allocates on its own account.
func TestBuildSpecAllocBudget(t *testing.T) {
	spec := twitterSpec(1)
	analyzer := text.Analyzer{Lang: text.None}
	if raceEnabled {
		if _, err := graph.BuildSpec(spec, analyzer); err != nil {
			t.Fatal(err)
		}
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := graph.BuildSpec(spec, analyzer)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("graph.BuildSpec at twitter scale 1: %d nodes, %d matrix entries, %.2f MB in %d allocations",
		in.NumNodes(), in.Matrix().NNZ(), mb, after.Mallocs-before.Mallocs)
	if mb > buildSpecMaxMB {
		t.Errorf("graph.BuildSpec allocates %.2f MB at twitter scale 1, budget %d MB", mb, buildSpecMaxMB)
	}
}

// BenchmarkBuildSpec is the cost of graph.BuildSpec — s3gen's graph
// stage — over the twitter spec of `s3gen -dataset twitter -seed 1` at
// scales 1 and 4.
func BenchmarkBuildSpec(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("twitter/scale=%d", scale), func(b *testing.B) {
			spec := twitterSpec(scale)
			analyzer := text.Analyzer{Lang: text.None}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.BuildSpec(spec, analyzer); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/op")
		})
	}
}
