package topks

import (
	"math/rand"
	"sort"
	"testing"

	"s3/internal/graph"
)

func intLess(a, b int) bool { return a < b }

// resultBefore orders Results as collect lists them: upper bound
// descending, ties by item id ascending.
func resultBefore(a, b Result) bool {
	if a.Upper != b.Upper {
		return a.Upper > b.Upper
	}
	return a.Item < b.Item
}

func TestMergeTopKBasics(t *testing.T) {
	got := MergeTopK(4, [][]int{{1, 4, 9}, {2, 3}, {}, {5}}, intLess)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("MergeTopK returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeTopK returned %v, want %v", got, want)
		}
	}
	if out := MergeTopK(0, [][]int{{1}}, intLess); out != nil {
		t.Errorf("k=0 returned %v", out)
	}
	if out := MergeTopK(3, nil, intLess); out != nil {
		t.Errorf("no lists returned %v", out)
	}
	// Fewer elements than k: everything comes back, still sorted.
	if out := MergeTopK(10, [][]int{{3, 7}, {1}}, intLess); len(out) != 3 || out[0] != 1 || out[2] != 7 {
		t.Errorf("undersized merge returned %v", out)
	}
}

// Merging per-shard top-k lists must equal the top-k of the union — the
// property the sharded search relies on.
func TestMergeTopKEqualsGlobalTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		k := 1 + rng.Intn(8)
		var all []Result
		lists := make([][]Result, n)
		for s := 0; s < n; s++ {
			m := rng.Intn(12)
			for i := 0; i < m; i++ {
				up := float64(rng.Intn(5)) / 4 // deliberate ties
				r := Result{Item: graph.NID(len(all)), Upper: up, Lower: up / 2}
				all = append(all, r)
				lists[s] = append(lists[s], r)
			}
			sort.Slice(lists[s], func(i, j int) bool { return resultBefore(lists[s][i], lists[s][j]) })
			if len(lists[s]) > k {
				lists[s] = lists[s][:k]
			}
		}
		sort.Slice(all, func(i, j int) bool { return resultBefore(all[i], all[j]) })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := MergeTopK(k, lists, resultBefore)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Item != want[i].Item || got[i].Upper != want[i].Upper {
				t.Fatalf("trial %d: result %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
