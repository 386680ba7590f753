package topks

import "slices"

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
// the same tie-breaking order). At most N·k entries, so one sort of
// their concatenation is the whole merge.
func MergeTopK[T any](k int, lists [][]T, less func(a, b T) bool) []T {
	if k <= 0 {
		return nil
	}
	var out []T
	for _, l := range lists {
		out = append(out, l...)
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
	return out[:min(k, len(out))]
}
