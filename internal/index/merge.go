package index

import (
	"fmt"

	"s3/internal/dict"
	"s3/internal/graph"
)

// Merge builds the index over in of component-disjoint parts — the
// postings of a shard set's files — by a k-way merge on component id.
// Each part is in canonical order, as a shard file stores it, and no
// component holds events in two parts, so interleaving the parts'
// per-component runs yields the canonical order without a sort. The
// parts are checked by Validate first, and the merged events are copied
// into one new array; FromFlat then derives the component summaries and
// refuses a result that is not strictly canonical, which is what parts
// that overlap or are out of order themselves produce.
func Merge(in *graph.Instance, parts []Flat) (*Index, error) {
	total := 0
	for i := range parts {
		if err := parts[i].Validate(in.NumNodes()); err != nil {
			return nil, fmt.Errorf("index: merging part %d: %w", i, err)
		}
		total += len(parts[i].Evs)
	}
	out := Flat{EvOff: []int64{0}, Evs: make([]Event, 0, total)}
	next := make([]int, len(parts)) // per part, its next posting
	runs := make([][]Event, len(parts))
	for {
		var kw dict.ID
		found := false
		for p := range parts {
			if i := next[p]; i < len(parts[p].Kws) && (!found || parts[p].Kws[i] < kw) {
				kw, found = parts[p].Kws[i], true
			}
		}
		if !found {
			return FromFlat(in, out)
		}
		for p := range parts {
			runs[p] = nil
			if i := next[p]; i < len(parts[p].Kws) && parts[p].Kws[i] == kw {
				runs[p] = parts[p].Events(kw)
				next[p]++
			}
		}
		out.Evs = mergeRuns(in, out.Evs, runs)
		out.Kws = append(out.Kws, kw)
		out.EvOff = append(out.EvOff, int64(len(out.Evs)))
	}
}

// mergeRuns appends the events of one keyword's runs to dst component by
// component: the run whose next event has the smallest component gives up
// all its events of that component, and the last run left is appended
// whole.
func mergeRuns(in *graph.Instance, dst []Event, runs [][]Event) []Event {
	for {
		best, live := -1, 0
		var comp int32
		for p, r := range runs {
			if len(r) == 0 {
				continue
			}
			live++
			if c := in.CompOf(r[0].Frag); best < 0 || c < comp {
				best, comp = p, c
			}
		}
		switch live {
		case 0:
			return dst
		case 1:
			return append(dst, runs[best]...)
		}
		r := runs[best]
		j := 1
		for j < len(r) && in.CompOf(r[j].Frag) == comp {
			j++
		}
		dst = append(dst, r[:j]...)
		runs[best] = r[j:]
	}
}
