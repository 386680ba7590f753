package topks

import "container/heap"

// MergeTopK combines per-shard top-k lists into the global top-k. Each
// input list must already be sorted best-first under less (a strict
// total order, e.g. score-interval upper bound descending with ties
// broken by item id); the output is the k best elements of the union in
// that same order.
//
// The merge is the fan-in half of partition-and-merge retrieval: when
// every shard contributes its own k best answers, the k best answers of
// the union are guaranteed to be among the k·N merged inputs, so the
// merged top-k provably equals the top-k a single engine would compute
// over the unpartitioned collection (given the same per-item scores and
// the same tie-breaking order).
func MergeTopK[T any](k int, lists [][]T, less func(a, b T) bool) []T {
	m := Merger[T]{less: less}
	return m.Merge(k, lists)
}

// Merger is a reusable MergeTopK: one instance amortizes the cursor-heap
// and output allocations across merges, so a steady-state caller (one
// merge per round) allocates nothing. The slice returned by
// Merge is valid only until the next Merge on the same Merger — callers
// that keep it longer must copy. A Merger is not safe for concurrent
// use.
type Merger[T any] struct {
	less func(a, b T) bool
	h    mergeHeap[T]
	out  []T
}

// NewMerger returns a Merger ordering elements by less (the same
// contract as MergeTopK's).
func NewMerger[T any](less func(a, b T) bool) *Merger[T] {
	return &Merger[T]{less: less}
}

// Merge is MergeTopK over the Merger's scratch. List exhaustion pops the
// cursor manually (swap-to-end plus sift-down) rather than through
// heap.Pop, whose interface return would box the cursor on every
// exhausted list.
func (m *Merger[T]) Merge(k int, lists [][]T) []T {
	if k <= 0 {
		return nil
	}
	h := &m.h
	h.less = m.less
	h.entries = h.entries[:0]
	for _, l := range lists {
		if len(l) > 0 {
			h.entries = append(h.entries, mergeCursor[T]{list: l})
		}
	}
	heap.Init(h)
	out := m.out[:0]
	for len(h.entries) > 0 && len(out) < k {
		c := &h.entries[0]
		out = append(out, c.list[c.pos])
		c.pos++
		if c.pos == len(c.list) {
			n := len(h.entries) - 1
			h.Swap(0, n)
			h.entries = h.entries[:n]
			if n > 0 {
				heap.Fix(h, 0)
			}
		} else {
			heap.Fix(h, 0)
		}
	}
	m.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// mergeCursor walks one sorted input list.
type mergeCursor[T any] struct {
	list []T
	pos  int
}

type mergeHeap[T any] struct {
	entries []mergeCursor[T]
	less    func(a, b T) bool
}

func (h *mergeHeap[T]) Len() int { return len(h.entries) }
func (h *mergeHeap[T]) Less(i, j int) bool {
	return h.less(h.entries[i].list[h.entries[i].pos], h.entries[j].list[h.entries[j].pos])
}
func (h *mergeHeap[T]) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *mergeHeap[T]) Push(x any)    { h.entries = append(h.entries, x.(mergeCursor[T])) }
func (h *mergeHeap[T]) Pop() any {
	old := h.entries
	n := len(old)
	x := old[n-1]
	h.entries = old[:n-1]
	return x
}

// ResultBefore is the canonical merge order for Result lists: score
// interval upper bound descending, ties by item id ascending — the same
// order collect uses, so merged sharded answers line up with unsharded
// ones.
func ResultBefore(a, b Result) bool {
	if a.Upper != b.Upper {
		return a.Upper > b.Upper
	}
	return a.Item < b.Item
}

// MergeResults merges per-shard TopkS answers into the global top-k by
// score interval.
func MergeResults(k int, lists [][]Result) []Result {
	return MergeTopK(k, lists, ResultBefore)
}
