package index

import (
	"fmt"

	"s3/internal/dict"
	"s3/internal/graph"
)

// Merge builds the index over in of component-disjoint parts — the
// postings of a shard set's files, or of a coordinator's postings replies
// — by a k-way merge on component id. Each part is in canonical order, as
// a shard file stores it, and no component holds events in two parts, so
// interleaving the parts' per-component runs yields the canonical order
// without a sort. The parts are checked by Validate first, and the merged
// events are copied into one new array. A component whose events for one
// keyword come from two parts is refused; FromFlat then derives the
// component summaries and refuses a result that is not strictly canonical,
// which is what a part out of order itself produces.
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
		var err error
		if out.Evs, err = mergeRuns(in, out.Evs, runs); err != nil {
			return nil, fmt.Errorf("index: merging keyword %d: %w", kw, err)
		}
		out.Kws = append(out.Kws, kw)
		out.EvOff = append(out.EvOff, int64(len(out.Evs)))
	}
}

// mergeRuns appends the events of one keyword's runs to dst component by
// component: the run whose next event has the smallest component gives up
// all its events of that component, and the last run left is appended
// whole. A run whose next component is the one just taken from another
// run shares that component with it, and is refused.
func mergeRuns(in *graph.Instance, dst []Event, runs [][]Event) ([]Event, error) {
	var last int32
	for taken := false; ; taken = true {
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
		if live == 0 {
			return dst, nil
		}
		if taken && comp == last {
			return nil, fmt.Errorf("component %d holds events in two parts", comp)
		}
		if live == 1 {
			return append(dst, runs[best]...), nil
		}
		r := runs[best]
		j := 1
		for j < len(r) && in.CompOf(r[j].Frag) == comp {
			j++
		}
		dst = append(dst, r[:j]...)
		runs[best], last = r[j:], comp
	}
}

// Split lays f out as n parts by component owner, the inverse of Merge:
// an event goes to part owner[c], c the component of its fragment, and
// each part keeps f's canonical order, as the files of a shard set store
// it. f's events must lie in components, as FromFlat requires.
func Split(in *graph.Instance, f Flat, owner []int32, n int) []Flat {
	return splitBy(f, n, func(_ int, ev Event) int { return int(owner[in.CompOf(ev.Frag)]) })
}

// splitBy lays f out as n parts event by event: part(i, ev) names the part
// of the i-th event. A part keeps its events in f's order.
func splitBy(f Flat, n int, part func(i int, ev Event) int) []Flat {
	parts := make([]Flat, n)
	for p := range parts {
		parts[p].EvOff = []int64{0}
	}
	for k, kw := range f.Kws {
		for i := f.EvOff[k]; i < f.EvOff[k+1]; i++ {
			p := &parts[part(int(i), f.Evs[i])]
			if len(p.Kws) == 0 || p.Kws[len(p.Kws)-1] != kw {
				p.Kws = append(p.Kws, kw)
				p.EvOff = append(p.EvOff, 0)
			}
			p.Evs = append(p.Evs, f.Evs[i])
			p.EvOff[len(p.EvOff)-1] = int64(len(p.Evs))
		}
	}
	return parts
}
