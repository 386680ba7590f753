package index

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/text"
)

// sameIndex fails unless got holds what want holds: the same keywords,
// and per keyword the same events, component list and run bound.
func sameIndex(t testing.TB, got, want *Index) {
	t.Helper()
	gf, wf := got.Flat(), want.Flat()
	if !slices.Equal(gf.Kws, wf.Kws) {
		t.Fatalf("keywords %v, want %v", gf.Kws, wf.Kws)
	}
	for _, kw := range wf.Kws {
		if !slices.Equal(gf.Events(kw), wf.Events(kw)) {
			t.Fatalf("keyword %d: events %v, want %v", kw, gf.Events(kw), wf.Events(kw))
		}
		g, w := got.Posting(kw), want.Posting(kw)
		if !slices.Equal(g.Comps(), w.Comps()) || g.MaxCompEvents() != w.MaxCompEvents() {
			t.Fatalf("keyword %d: comps %v / %d, want %v / %d", kw,
				g.Comps(), g.MaxCompEvents(), w.Comps(), w.MaxCompEvents())
		}
	}
}

// TestMergeEqualsBuild slices built indexes by PartitionComponents with
// Split, as a shard-set writer does, and merges the slices back: for every
// shard count the merged index is the built one.
func TestMergeEqualsBuild(t *testing.T) {
	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets = 60, 240
	twitter, _ := datagen.Twitter(to)
	vo := datagen.DefaultVodkasterOptions()
	vo.Users, vo.Movies = 50, 30
	yo := datagen.DefaultYelpOptions()
	yo.Users, yo.Businesses = 50, 30
	for name, spec := range map[string]graph.Spec{"twitter": twitter, "vodkaster": datagen.Vodkaster(vo), "yelp": datagen.Yelp(yo)} {
		in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
		if err != nil {
			t.Fatal(err)
		}
		ix := Build(in)
		for _, n := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				groups, err := graph.PartitionComponents(in, n)
				if err != nil {
					t.Fatal(err)
				}
				owner, err := graph.ComponentOwners(in.NumComponents(), groups)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Merge(in, Split(in, ix.Flat(), owner, n))
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, got, ix)
			})
		}
	}
}

// TestMergeRefusesSharedComponent: parts must not share a component. Two
// events of one keyword in one component, each in its own part, are
// refused whether the second part's run is appended whole (two parts) or
// merged component by component (a third part still live).
func TestMergeRefusesSharedComponent(t *testing.T) {
	in, ix := figure1(t)
	const kw = 5
	a := Event{Frag: 6, Src: 15, Type: CommentsOn}
	b := Event{Frag: 15, Src: graph.NoNID, Type: Contains}
	f := ix.Flat()
	if !slices.Contains(f.Events(kw), a) || !slices.Contains(f.Events(kw), b) || in.CompOf(a.Frag) != in.CompOf(b.Frag) {
		t.Fatalf("figure1 changed: keyword %d has events %v", kw, f.Events(kw))
	}
	one := func(ev Event) Flat { return Flat{Kws: []dict.ID{kw}, EvOff: []int64{0, 1}, Evs: []Event{ev}} }
	for name, parts := range map[string][]Flat{
		"last run whole": {one(a), one(b)},
		"reversed":       {one(b), one(a)},
		"three parts":    {one(a), one(b), one(a)},
	} {
		if _, err := Merge(in, parts); err == nil || !strings.Contains(err.Error(), "two parts") {
			t.Errorf("%s: Merge: %v, want the shared-component error", name, err)
		}
	}
}

// encodeParts is the inverse of decodeParts, for seeding.
func encodeParts(parts []Flat) []byte {
	b := []byte{byte(len(parts) - 1)}
	for p, f := range parts {
		for _, kw := range f.Kws {
			evs := f.Events(kw)
			b = append(b, byte(p), byte(kw), byte(len(evs)))
			for _, e := range evs {
				b = append(b, byte(e.Frag), byte(e.Src), byte(e.Type))
			}
		}
	}
	return b
}

// decodeParts reads fuzz input as up to four parts: a part count, then
// postings, each a part byte, a keyword byte and an event count, then per
// event a fragment and a source as signed bytes (so negatives and NoNID
// occur) and a type byte. A part's consecutive postings of one keyword
// are one posting.
func decodeParts(b []byte) []Flat {
	if len(b) == 0 {
		return nil
	}
	parts := make([]Flat, int(b[0])%4+1)
	for p := range parts {
		parts[p].EvOff = []int64{0}
	}
	for b = b[1:]; len(b) >= 3; {
		f := &parts[int(b[0])%len(parts)]
		kw, n := dict.ID(b[1]), int(b[2])
		b = b[3:]
		if len(f.Kws) == 0 || f.Kws[len(f.Kws)-1] != kw {
			f.Kws = append(f.Kws, kw)
			f.EvOff = append(f.EvOff, 0)
		}
		for ; n > 0 && len(b) >= 3; n-- {
			f.Evs = append(f.Evs, Event{Frag: graph.NID(int8(b[0])), Src: graph.NID(int8(b[1])), Type: ConnType(b[2])})
			b = b[3:]
		}
		f.EvOff[len(f.EvOff)-1] = int64(len(f.Evs))
	}
	return parts
}

// FuzzMerge feeds arbitrary parts over figure1's instance to Merge, the
// constructor of a shard set's index and of a coordinator's per-search
// index. It must never panic, and whatever it accepts must hold what the
// parts hold, checked by brute force: per keyword, exactly the multiset
// of the parts' events, strictly in canonical order, with every component
// from a single part; Comps the distinct components in event order;
// MaxCompEvents the longest single-component run; and InComp the events
// filtered by component (the Posting handle's methods). Seeds: figure1's
// postings as one part and split four ways, one with an event outside the
// instance (on a copy, since Flat shares the index's arrays), one with an
// event repeated, and one whose first posting a second part repeats.
func FuzzMerge(f *testing.F) {
	in, ix := figure1(f)
	good := ix.Flat()
	nev := len(good.Evs)
	seed := func(n int, part func(i int) int) []byte {
		return encodeParts(splitBy(good, n, func(i int, _ Event) int { return part(i) }))
	}
	f.Add(seed(1, func(int) int { return 0 }))
	f.Add(seed(2, func(i int) int { return i % 2 }))
	f.Add(seed(2, func(i int) int { return 1 - 2*i/nev }))
	f.Add(seed(4, func(i int) int { return i / 3 }))
	outside := cloneFlat(good)
	outside.Evs[0].Frag = -1
	f.Add(encodeParts([]Flat{outside}))
	repeated := Flat{Kws: good.Kws, EvOff: slices.Clone(good.EvOff), Evs: slices.Insert(slices.Clone(good.Evs), 0, good.Evs[0])}
	for i := 1; i < len(repeated.EvOff); i++ {
		repeated.EvOff[i]++
	}
	f.Add(encodeParts([]Flat{repeated}))
	first := Flat{Kws: good.Kws[:1], EvOff: good.EvOff[:2], Evs: good.Events(good.Kws[0])}
	f.Add(encodeParts([]Flat{good, first}))
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := decodeParts(data)
		got, err := Merge(in, parts)
		if err != nil {
			return
		}
		byKey := func(a, b Event) int {
			key := func(e Event) []int64 {
				return []int64{int64(in.CompOf(e.Frag)), int64(e.Frag), int64(e.Type), int64(e.Src)}
			}
			return slices.Compare(key(a), key(b))
		}
		given := map[dict.ID][]Event{}
		from := map[[2]int64]int{} // (keyword, component) → the part holding its events
		for p, f := range parts {
			for i, kw := range f.Kws {
				evs := f.Evs[f.EvOff[i]:f.EvOff[i+1]]
				given[kw] = append(given[kw], evs...)
				for _, e := range evs {
					kc := [2]int64{int64(kw), int64(in.CompOf(e.Frag))}
					if q, ok := from[kc]; ok && q != p {
						t.Fatalf("keyword %d: component %d has events in parts %d and %d", kw, kc[1], q, p)
					}
					from[kc] = p
				}
			}
		}
		kws := make([]dict.ID, 0, len(given))
		for kw := range given {
			kws = append(kws, kw)
		}
		slices.Sort(kws)
		gf := got.Flat()
		if !slices.Equal(gf.Kws, kws) {
			t.Fatalf("keywords %v, parts hold %v", gf.Kws, kws)
		}
		for _, kw := range kws {
			p, evs := got.Posting(kw), gf.Events(kw)
			want := slices.SortedFunc(slices.Values(given[kw]), byKey)
			if !slices.Equal(slices.SortedFunc(slices.Values(evs), byKey), want) {
				t.Fatalf("keyword %d: events %v, parts hold %v", kw, evs, want)
			}
			var comps []int32
			runs := map[int32]int{}
			for i, e := range evs {
				if i > 0 && byKey(evs[i-1], e) >= 0 {
					t.Fatalf("keyword %d: events %d and %d out of canonical order", kw, i-1, i)
				}
				c := in.CompOf(e.Frag)
				if !slices.Contains(comps, c) {
					comps = append(comps, c)
				}
				runs[c]++
			}
			if !slices.Equal(p.Comps(), comps) {
				t.Fatalf("keyword %d: Comps %v, events' components %v", kw, p.Comps(), comps)
			}
			longest := 0
			for _, n := range runs {
				longest = max(longest, n)
			}
			if p.MaxCompEvents() != longest {
				t.Fatalf("keyword %d: MaxCompEvents %d, longest run %d", kw, p.MaxCompEvents(), longest)
			}
			for _, c := range append(comps, -1, int32(in.NumComponents())) {
				var want []Event
				for _, e := range evs {
					if in.CompOf(e.Frag) == c {
						want = append(want, e)
					}
				}
				if inComp := p.InComp(c); !slices.Equal(inComp, want) {
					t.Fatalf("keyword %d: InComp(%d) = %v, filter %v", kw, c, inComp, want)
				}
			}
		}
	})
}
