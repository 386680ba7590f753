package index

import (
	"slices"
	"testing"

	"s3/internal/graph"
)

// flatten lays an index out in its flat form, the way a snapshot writer
// does.
func flatten(ix *Index) Flat {
	f := Flat{EvOff: []int64{0}}
	for _, p := range ix.Raw() {
		f.Kws = append(f.Kws, p.Kw)
		f.Evs = append(f.Evs, p.Events...)
		f.EvOff = append(f.EvOff, int64(len(f.Evs)))
	}
	return f
}

// TestFlatEventsAndValidate checks that Flat.Events answers what the
// index it was laid out from answers, that FromFlat derives the same
// component summaries Build does, and that Validate (which FromFlat runs
// too) rejects every array that would make a read panic.
func TestFlatEventsAndValidate(t *testing.T) {
	in, ix := figure1(t)
	f := flatten(ix)
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
	loaded, err := FromFlat(in, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range ix.Keywords() {
		if !slices.Equal(loaded.Comps(kw), ix.Comps(kw)) || loaded.MaxCompEvents(kw) != ix.MaxCompEvents(kw) {
			t.Errorf("keyword %d: FromFlat derives %v / %d, Build %v / %d", kw,
				loaded.Comps(kw), loaded.MaxCompEvents(kw), ix.Comps(kw), ix.MaxCompEvents(kw))
		}
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
	} {
		bad := flatten(ix)
		mutate(&bad)
		if err := bad.Validate(in.NumNodes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := FromFlat(in, bad); err == nil {
			t.Errorf("%s: FromFlat accepted", name)
		}
	}
}
