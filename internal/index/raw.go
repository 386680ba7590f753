package index

import (
	"fmt"
	"slices"
	"sort"

	"s3/internal/dict"
	"s3/internal/graph"
)

// RawPosting is the event list of one keyword, the serialisable unit of
// the connection index.
type RawPosting struct {
	Kw     dict.ID
	Events []Event
}

// Raw flattens the index into postings sorted by keyword id (canonical
// order, so serialising is deterministic). Event slices are shared with
// the index and must not be modified.
func (ix *Index) Raw() []RawPosting {
	out := make([]RawPosting, 0, len(ix.byKw))
	for kw, p := range ix.byKw {
		out = append(out, RawPosting{Kw: kw, Events: p.evs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kw < out[j].Kw })
	return out
}

// Flat is the snapshot import form of an index: the canonically-ordered
// flat arrays of a snapshot or shard file. Evs holds every posting's
// events back to back, and EvOff where each starts. The per-posting
// component summaries are not part of it: FromFlat derives them.
type Flat struct {
	Kws   []dict.ID
	EvOff []int64
	Evs   []Event
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

// Events returns the events of keyword k (nil when it has none): a
// binary search over Kws, then a sub-slice by EvOff. The flat form must
// have passed Validate.
func (f *Flat) Events(k dict.ID) []Event {
	i, ok := slices.BinarySearch(f.Kws, k)
	if !ok {
		return nil
	}
	lo, hi := f.EvOff[i], f.EvOff[i+1]
	return f.Evs[lo:hi:hi]
}

// FromFlat reconstructs an index over a frozen instance from its flat
// form. The events are not copied: every posting is a sub-slice of f.Evs
// (which points into a snapshot's bytes — see graph.Raw's immutability
// contract). The arrays are checked by Validate first. Then each
// posting's component list and run bound are derived from its events,
// which must be strictly in canonical order (summarize), so a file whose
// events are out of order is refused, never served. All the postings'
// component lists share one backing array.
func FromFlat(in *graph.Instance, f Flat) (*Index, error) {
	if err := f.Validate(in.NumNodes()); err != nil {
		return nil, err
	}
	ix := newIndex(in, len(f.Kws))
	for i, kw := range f.Kws {
		lo, hi := f.EvOff[i], f.EvOff[i+1]
		if err := ix.add(kw, f.Evs[lo:hi:hi]); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// CheckOrder reports an error unless evs, whose fragments must be nodes
// of in, are strictly in the canonical order of a posting: the order
// Events returns and a shard file stores.
func CheckOrder(in *graph.Instance, evs []Event) error {
	_, _, err := summarize(in, evs, nil)
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

// FromRaw reconstructs an index over a frozen instance from its postings.
// Events are range-checked against the instance and re-sorted into the
// canonical order, so they may arrive in any order; a posting that lists
// one event twice, or two postings of one keyword, are refused. The
// component lists and run bounds are derived as FromFlat derives them.
func FromRaw(in *graph.Instance, postings []RawPosting) (*Index, error) {
	n := graph.NID(in.NumNodes())
	ix := newIndex(in, len(postings))
	for _, p := range postings {
		// Copy before sorting: postings may share backing arrays with a
		// live index (Raw documents them as read-only).
		evs := slices.Clone(p.Events)
		for _, e := range evs {
			if e.Frag < 0 || e.Frag >= n {
				return nil, fmt.Errorf("index: event fragment %d outside instance of %d nodes", e.Frag, n)
			}
			if e.Src != graph.NoNID && (e.Src < 0 || e.Src >= n) {
				return nil, fmt.Errorf("index: event source %d outside instance of %d nodes", e.Src, n)
			}
			if e.Type > CommentsOn {
				return nil, fmt.Errorf("index: unknown connection type %d", e.Type)
			}
		}
		slices.SortFunc(evs, func(a, b Event) int {
			return compareEvents(in.CompOf(a.Frag), a, in.CompOf(b.Frag), b)
		})
		if err := ix.add(p.Kw, evs); err != nil {
			return nil, err
		}
	}
	return ix, nil
}
