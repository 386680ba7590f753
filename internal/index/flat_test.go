package index

import (
	"slices"
	"testing"

	"s3/internal/graph"
)

// flatten lays an index out in its flat form, the way a snapshot writer
// does.
func flatten(in *graph.Instance, ix *Index) Flat {
	f := Flat{EvOff: []int64{0}, CompOff: []int64{0}}
	for _, p := range ix.Raw() {
		f.Kws = append(f.Kws, p.Kw)
		for _, ev := range p.Events {
			f.Evs = append(f.Evs, ev)
			f.Comps = append(f.Comps, in.CompOf(ev.Frag))
		}
		f.EvOff = append(f.EvOff, int64(len(f.Evs)))
		f.CompIDs = append(f.CompIDs, ix.Comps(p.Kw)...)
		f.CompOff = append(f.CompOff, int64(len(f.CompIDs)))
		f.MaxRuns = append(f.MaxRuns, int32(ix.MaxCompEvents(p.Kw)))
	}
	return f
}

// TestFlatEventsAndValidate checks that Flat.Events answers what the
// index it was laid out from answers, and that Validate (which FromFlat
// runs too) rejects every array that would make a read panic.
func TestFlatEventsAndValidate(t *testing.T) {
	in, ix := figure1(t)
	f := flatten(in, ix)
	if err := f.Validate(in.NumNodes()); err != nil {
		t.Fatal(err)
	}
	for _, kw := range ix.Keywords() {
		if !slices.Equal(f.Events(kw), ix.Events(kw)) {
			t.Errorf("keyword %d: flat events %v, index %v", kw, f.Events(kw), ix.Events(kw))
		}
	}
	if evs := f.Events(f.Kws[len(f.Kws)-1] + 1); evs != nil {
		t.Errorf("unknown keyword has events %v", evs)
	}

	n := graph.NID(in.NumNodes())
	for name, mutate := range map[string]func(f *Flat){
		"short offsets":     func(f *Flat) { f.EvOff = f.EvOff[:len(f.EvOff)-1] },
		"decreasing offset": func(f *Flat) { f.EvOff[1], f.EvOff[2] = f.EvOff[2], f.EvOff[1] },
		"keywords unsorted": func(f *Flat) { f.Kws[0], f.Kws[1] = f.Kws[1], f.Kws[0] },
		"fragment too big":  func(f *Flat) { f.Evs[0].Frag = n },
		"negative fragment": func(f *Flat) { f.Evs[0].Frag = -1 },
		"source too big":    func(f *Flat) { f.Evs[0].Src = n },
		"unknown type":      func(f *Flat) { f.Evs[0].Type = CommentsOn + 1 },
		"component count":   func(f *Flat) { f.Comps = f.Comps[1:] },
		"run bound count":   func(f *Flat) { f.MaxRuns = f.MaxRuns[1:] },
	} {
		bad := flatten(in, ix)
		mutate(&bad)
		if err := bad.Validate(in.NumNodes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := FromFlat(in, bad); err == nil {
			t.Errorf("%s: FromFlat accepted", name)
		}
	}
}
