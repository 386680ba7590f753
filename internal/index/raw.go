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
	for kw, l := range ix.byKw {
		out = append(out, RawPosting{Kw: kw, Events: l.evs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kw < out[j].Kw })
	return out
}

// Flat is the snapshot import form of an index: the canonically-ordered
// flat arrays of a snapshot or shard file (Evs holds every posting's
// events back to back, EvOff where each starts), including the
// precomputed per-posting component summaries (CompOff/CompIDs list each
// posting's distinct components in event order; MaxRuns bounds its
// longest single-component run — the §4 threshold input).
type Flat struct {
	Kws     []dict.ID
	EvOff   []int64
	Evs     []Event
	Comps   []int32
	CompOff []int64
	CompIDs []int32
	MaxRuns []int32
}

// Validate checks whatever could make a read of the flat form panic or
// hang — array lengths, offset monotonicity, keyword order, event
// fragments and sources as indices of an instance of numNodes nodes, and
// event types — with cheap sequential scans. It is all a holder of the
// events alone can check; FromFlat, which has the instance, also checks
// the event order and component summaries against it.
func (f *Flat) Validate(numNodes int) error {
	nkw := len(f.Kws)
	if err := checkOff(f.EvOff, nkw, len(f.Evs), "event"); err != nil {
		return err
	}
	if err := checkOff(f.CompOff, nkw, len(f.CompIDs), "component summary"); err != nil {
		return err
	}
	if len(f.Comps) != len(f.Evs) {
		return fmt.Errorf("index: %d component ids for %d events", len(f.Comps), len(f.Evs))
	}
	if len(f.MaxRuns) != nkw {
		return fmt.Errorf("index: %d run bounds for %d keywords", len(f.MaxRuns), nkw)
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
// form without copying: every per-keyword list is a sub-slice of the
// supplied arrays (which point into a snapshot's bytes — see graph.Raw's
// immutability contract). The arrays are checked by Validate first, then
// each posting's stored derived arrays against what its events imply
// (checkPosting), so an inconsistent file is refused, never served.
func FromFlat(in *graph.Instance, f Flat) (*Index, error) {
	if err := f.Validate(in.NumNodes()); err != nil {
		return nil, err
	}
	nkw := len(f.Kws)
	ix := &Index{
		in:            in,
		byKw:          make(map[dict.ID]*kwList, nkw),
		compsByKw:     make(map[dict.ID][]int32, nkw),
		maxCompEvents: make(map[dict.ID]int, nkw),
	}
	comp := in.CompTable()
	lists := make([]kwList, nkw)
	for i, kw := range f.Kws {
		lo, hi := f.EvOff[i], f.EvOff[i+1]
		clo, chi := f.CompOff[i], f.CompOff[i+1]
		if err := checkPosting(comp, f.Evs[lo:hi], f.Comps[lo:hi], f.CompIDs[clo:chi], f.MaxRuns[i]); err != nil {
			return nil, fmt.Errorf("index: posting of keyword %d: %w", kw, err)
		}
		lists[i] = kwList{evs: f.Evs[lo:hi:hi], comps: f.Comps[lo:hi:hi]}
		ix.byKw[kw] = &lists[i]
		ix.compsByKw[kw] = f.CompIDs[clo:chi:chi]
		ix.maxCompEvents[kw] = int(f.MaxRuns[i])
	}
	return ix, nil
}

// checkPosting checks one posting's stored derived arrays against its
// events, allocation-free: events strictly in compareEvents' order,
// comps[i] the component of event i's fragment, compIDs the distinct runs
// of comps and maxRun the longest of them — what Build and FromRaw derive.
// comps must be as long as evs.
func checkPosting(comp []int32, evs []Event, comps, compIDs []int32, maxRun int32) error {
	comps = comps[:len(evs)]
	runs, run, longest := 0, int32(0), int32(0)
	for i, e := range evs {
		c := comp[e.Frag]
		if comps[i] != c {
			return fmt.Errorf("event %d is filed under component %d, its fragment lies in %d", i, comps[i], c)
		}
		if i > 0 && c == comps[i-1] {
			// Within a component, (fragment, type, source) ascends.
			p := evs[i-1]
			if e.Frag < p.Frag || e.Frag == p.Frag && (e.Type < p.Type || e.Type == p.Type && e.Src <= p.Src) {
				return fmt.Errorf("events out of canonical order at %d", i)
			}
			run++
		} else {
			if i > 0 && c < comps[i-1] {
				return fmt.Errorf("events out of canonical order at %d", i)
			}
			if runs == len(compIDs) || compIDs[runs] != c {
				return fmt.Errorf("component summary diverges from the events at run %d", runs)
			}
			runs++
			run = 1
		}
		longest = max(longest, run)
	}
	if runs != len(compIDs) {
		return fmt.Errorf("component summary lists %d components, the events %d", len(compIDs), runs)
	}
	if longest != maxRun {
		return fmt.Errorf("run bound %d, the longest run is %d", maxRun, longest)
	}
	return nil
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
// The per-keyword component tables and bounds are re-derived (they are
// cheap linear scans); events are re-sorted with the canonical freeze
// order, so postings may arrive in any order. Cross-references are
// validated against the instance.
func FromRaw(in *graph.Instance, postings []RawPosting) (*Index, error) {
	n := graph.NID(in.NumNodes())
	ix := &Index{
		in:            in,
		byKw:          make(map[dict.ID]*kwList, len(postings)),
		compsByKw:     make(map[dict.ID][]int32, len(postings)),
		maxCompEvents: make(map[dict.ID]int, len(postings)),
	}
	for _, p := range postings {
		if _, dup := ix.byKw[p.Kw]; dup {
			return nil, fmt.Errorf("index: duplicate posting for keyword %d", p.Kw)
		}
		// Copy before sorting: postings may share backing arrays with a
		// live index (Raw documents them as read-only).
		evs := make([]Event, len(p.Events))
		copy(evs, p.Events)
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
		comps := make([]int32, len(evs))
		var uniq []int32
		maxRun, run := 0, 0
		for i, e := range evs {
			comps[i] = in.CompOf(e.Frag)
			if i == 0 || comps[i] != comps[i-1] {
				uniq = append(uniq, comps[i])
				run = 0
			}
			run++
			if run > maxRun {
				maxRun = run
			}
		}
		ix.byKw[p.Kw] = &kwList{evs: evs, comps: comps}
		ix.compsByKw[p.Kw] = uniq
		ix.maxCompEvents[p.Kw] = maxRun
	}
	return ix, nil
}
