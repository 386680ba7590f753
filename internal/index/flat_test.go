package index

import (
	"slices"
	"strings"
	"testing"

	"s3/internal/dict"
	"s3/internal/graph"
)

// cloneFlat returns a deep copy of f: Index.Flat shares the index's
// arrays, so a fixture that edits a flat form in place edits a copy.
func cloneFlat(f Flat) Flat {
	return Flat{Kws: slices.Clone(f.Kws), EvOff: slices.Clone(f.EvOff), Evs: slices.Clone(f.Evs)}
}

// TestFlatEventsAndValidate checks that Flat.Events answers what the
// index it was laid out from answers, that FromFlat derives the same
// component summaries Build does, and that Validate (which FromFlat runs
// too) rejects every array that would make a read panic, each row editing
// a copy of a valid flat form.
func TestFlatEventsAndValidate(t *testing.T) {
	in, ix := figure1(t)
	f := ix.Flat()
	if err := f.Validate(in.NumNodes()); err != nil {
		t.Fatal(err)
	}
	for _, kw := range f.Kws {
		p := ix.Posting(kw)
		var byComp []Event
		for _, c := range p.Comps() {
			byComp = append(byComp, p.InComp(c)...)
		}
		if !slices.Equal(f.Events(kw), byComp) {
			t.Errorf("keyword %d: flat events %v, index by component %v", kw, f.Events(kw), byComp)
		}
	}
	if evs := f.Events(f.Kws[len(f.Kws)-1] + 1); evs != nil {
		t.Errorf("unknown keyword has events %v", evs)
	}
	loaded, err := FromFlat(in, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range f.Kws {
		l, b := loaded.Posting(kw), ix.Posting(kw)
		if !slices.Equal(l.Comps(), b.Comps()) || l.MaxCompEvents() != b.MaxCompEvents() {
			t.Errorf("keyword %d: FromFlat derives %v / %d, Build %v / %d", kw,
				l.Comps(), l.MaxCompEvents(), b.Comps(), b.MaxCompEvents())
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
		bad := cloneFlat(f)
		mutate(&bad)
		if err := bad.Validate(in.NumNodes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := FromFlat(in, bad); err == nil {
			t.Errorf("%s: FromFlat accepted", name)
		}
	}
}

// TestRepeatedEventRejected: a posting that lists one event twice would
// count the event's connection twice — a longer run bound and a doubled
// term mass — so FromFlat and Merge refuse it, whatever posting it is in.
func TestRepeatedEventRejected(t *testing.T) {
	in, ix := figure1(t)
	good := ix.Flat()
	for i, kw := range good.Kws {
		lo := good.EvOff[i]
		bad := Flat{Kws: good.Kws, EvOff: slices.Clone(good.EvOff), Evs: slices.Insert(slices.Clone(good.Evs), int(lo), good.Evs[lo])}
		for j := i + 1; j < len(bad.EvOff); j++ {
			bad.EvOff[j]++
		}
		const want = "out of canonical order"
		if _, err := FromFlat(in, bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("keyword %d with its first event repeated: FromFlat: %v, want %q", kw, err, want)
		}
		if _, err := Merge(in, []Flat{bad}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("keyword %d with its first event repeated: Merge: %v, want %q", kw, err, want)
		}
	}
}

// TestUserFragmentRefused: a user node has no component, so an event
// anchored on one would list component -1 among a posting's components,
// which a shard owner table or a component lookup would then index. Every
// way of building an index refuses it, wherever the event sits in its
// posting.
func TestUserFragmentRefused(t *testing.T) {
	in, ix := figure1(t)
	user := in.Users()[0]
	const want = "lies in no component"
	f := ix.Flat()
	for _, kw := range f.Kws {
		for _, at := range []int{0, len(f.Events(kw)) - 1} {
			evs := slices.Clone(f.Events(kw))
			evs[at].Frag = user
			flat := Flat{Kws: []dict.ID{kw}, EvOff: []int64{0, int64(len(evs))}, Evs: evs}
			if _, err := FromFlat(in, flat); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("keyword %d event %d: FromFlat: %v, want %q", kw, at, err, want)
			}
			if _, err := Merge(in, []Flat{flat}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("keyword %d event %d: Merge: %v, want %q", kw, at, err, want)
			}
			if err := CheckOrder(in, evs); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("keyword %d event %d: CheckOrder: %v, want %q", kw, at, err, want)
			}
		}
	}
}
