package graph_test

import (
	"fmt"
	"runtime"
	"sync"
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

// buildSpecMaxMB and buildSpecMaxAllocs bound what graph.BuildSpec
// allocates over the twitter scale-1 spec, in MB (10⁶ B) and in
// allocations. A build makes ≈ 6.8 k allocations there, one for each
// derived URI among them: an allocation per document node more would
// exceed the count's bound.
const (
	buildSpecMaxMB     = 12
	buildSpecMaxAllocs = 8100
)

// TestBuildSpecAllocBudget bounds the bytes and the allocations
// graph.BuildSpec makes at twitter scale 1. Not parallel: the figures are
// differences of whole-process readings. Not measured under the race
// detector, whose runtime allocates on its own account.
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
	allocs := after.Mallocs - before.Mallocs
	t.Logf("graph.BuildSpec at twitter scale 1: %d nodes, %d matrix entries, %.2f MB in %d allocations",
		in.NumNodes(), in.Matrix().NNZ(), mb, allocs)
	if mb > buildSpecMaxMB {
		t.Errorf("graph.BuildSpec allocates %.2f MB at twitter scale 1, budget %d MB", mb, buildSpecMaxMB)
	}
	if allocs > buildSpecMaxAllocs {
		t.Errorf("graph.BuildSpec makes %d allocations at twitter scale 1, budget %d", allocs, buildSpecMaxAllocs)
	}
}

// Builds of one spec may run at once: BuildSpec only reads it. Under
// -race a write into the shared document trees is a reported race.
func TestBuildSpecConcurrent(t *testing.T) {
	spec := twitterSpec(1)
	analyzer := text.Analyzer{Lang: text.None}
	var ins [2]*graph.Instance
	var errs [2]error
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ins[i], errs[i] = graph.BuildSpec(spec, analyzer)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if ins[0].NumNodes() != ins[1].NumNodes() {
		t.Fatalf("the builds have %d and %d nodes", ins[0].NumNodes(), ins[1].NumNodes())
	}
	for v := range ins[0].NumNodes() {
		if a, b := ins[0].URIOf(graph.NID(v)), ins[1].URIOf(graph.NID(v)); a != b {
			t.Fatalf("node %d is %q in one build and %q in the other", v, a, b)
		}
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
