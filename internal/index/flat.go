package index

import (
	"fmt"
	"math"
	"slices"

	"s3/internal/dict"
	"s3/internal/graph"
)

// Flat is the one serialised form of an index: the canonically-ordered
// flat arrays a snapshot or shard file stores, a postings reply decodes
// into, and Merge and Split work on. Kws ascends, Evs holds every
// posting's events back to back, and EvOff where each starts. The
// per-posting component summaries are not part of it: FromFlat derives
// them.
type Flat struct {
	Kws   []dict.ID
	EvOff []int64
	Evs   []Event
}

// Flat returns the flat form the index holds: the arrays Build laid out or
// a file stored, not a copy, each capped at its length. They are
// read-only, like graph.Raw's — for a mapped file they are the mapping.
func (ix *Index) Flat() Flat {
	return Flat{Kws: slices.Clip(ix.f.Kws), EvOff: slices.Clip(ix.f.EvOff), Evs: slices.Clip(ix.f.Evs)}
}

// Validate checks whatever could make a read of the flat form panic or
// hang — offset monotonicity, keyword order, event fragments and sources
// as indices of an instance of numNodes nodes, and event types — with
// cheap sequential scans. It is all a holder of the events alone can
// check; FromFlat, which has the instance, also checks the event order.
func (f *Flat) Validate(numNodes int) error {
	nkw := len(f.Kws)
	if err := checkOff(f.EvOff, nkw, len(f.Evs), "event"); err != nil {
		return err
	}
	for i := 1; i < nkw; i++ {
		if f.Kws[i-1] >= f.Kws[i] {
			return fmt.Errorf("index: posting keywords out of order at %d", i)
		}
	}
	// Fragments and sources are used as node indices by the scorer, and
	// types index its per-type weights. The pass is a branch-free max
	// reduction — uint32(x) folds the negative cases in, and the +1 bias
	// maps the NoNID source sentinel (-1) to 0, which every bound accepts.
	var maxFrag, maxSrc1 uint32
	var maxType ConnType
	for i := range f.Evs {
		if v := uint32(f.Evs[i].Frag); v > maxFrag {
			maxFrag = v
		}
		if v := uint32(f.Evs[i].Src) + 1; v > maxSrc1 {
			maxSrc1 = v
		}
		maxType = max(maxType, f.Evs[i].Type)
	}
	n := uint32(numNodes)
	if len(f.Evs) > 0 && (maxFrag >= n || maxSrc1 > n) {
		return fmt.Errorf("index: event fragment or source outside instance of %d nodes", n)
	}
	if maxType > CommentsOn {
		return fmt.Errorf("index: unknown connection type %d", maxType)
	}
	return nil
}

// Events returns the events of keyword k (nil when it has none): the
// keyword lookup, then a sub-slice by EvOff. The flat form must have
// passed Validate.
func (f *Flat) Events(k dict.ID) []Event {
	i, ok := f.find(k)
	if !ok {
		return nil
	}
	lo, hi := f.EvOff[i], f.EvOff[i+1]
	return f.Evs[lo:hi:hi]
}

// find is the package's one keyword lookup: k's position in Kws, by a
// binary search.
func (f *Flat) find(k dict.ID) (int, bool) { return slices.BinarySearch(f.Kws, k) }

// FromFlat reconstructs an index over a frozen instance from its flat
// form, which it holds: nothing is copied (the arrays may point into a
// snapshot's bytes — see graph.Raw's immutability contract). The arrays
// are checked by Validate first. Then each posting's component list, and
// where each component's run of events starts, are derived from its
// events, which must be strictly in canonical order (summarize), so a file
// whose events are out of order is refused, never served. All the
// postings' summaries share one backing array of each.
func FromFlat(in *graph.Instance, f Flat) (*Index, error) {
	if err := f.Validate(in.NumNodes()); err != nil {
		return nil, err
	}
	if len(f.Evs) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d events, more than an index holds", len(f.Evs))
	}
	// One pass counts the summary entries — a posting's component changes
	// — so the summaries are allocated once, at their size.
	n := 0
	for i := range f.Kws {
		prev := int32(-1)
		for _, ev := range f.Evs[f.EvOff[i]:f.EvOff[i+1]] {
			if c := in.CompOf(ev.Frag); c != prev {
				n, prev = n+1, c
			}
		}
	}
	ix := &Index{in: in, f: f, compOff: make([]int32, 1, len(f.Kws)+1),
		comps: make([]int32, 0, n), first: make([]int32, 0, n+1)}
	for i, kw := range f.Kws {
		lo, hi := f.EvOff[i], f.EvOff[i+1]
		var err error
		if ix.comps, ix.first, err = summarize(in, f.Evs[lo:hi], int32(lo), ix.comps, ix.first); err != nil {
			return nil, fmt.Errorf("index: posting of keyword %d: %w", kw, err)
		}
		ix.compOff = append(ix.compOff, int32(len(ix.comps)))
	}
	ix.first = append(ix.first, int32(len(f.Evs)))
	return ix, nil
}

// CheckOrder reports an error unless evs, whose fragments must be nodes
// of in, are strictly in the canonical order of a posting: the order
// Events returns and a shard file stores.
func CheckOrder(in *graph.Instance, evs []Event) error {
	_, _, err := summarize(in, evs, 0, nil, nil)
	return err
}

// checkOff validates an n+1-entry offset table spanning [0, total]
// monotonically, which is what makes the sub-slicing above panic-free.
func checkOff(off []int64, n, total int, what string) error {
	if len(off) != n+1 {
		return fmt.Errorf("index: %s offsets have %d entries for %d postings", what, len(off), n)
	}
	if off[0] != 0 || off[n] != int64(total) {
		return fmt.Errorf("index: %s offsets span [%d, %d] for %d entries", what, off[0], off[n], total)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("index: decreasing %s offset at posting %d", what, i)
		}
	}
	return nil
}
