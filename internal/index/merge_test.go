package index

import (
	"fmt"
	"slices"
	"testing"

	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/text"
)

// split lays postings out as n flat parts, event by event: part(i, ev)
// names the part of the i-th event. A part keeps its events in the order
// they came in, so the parts of canonical postings are canonical.
func split(postings []RawPosting, n int, part func(i int, ev Event) int) []Flat {
	parts := make([]Flat, n)
	for p := range parts {
		parts[p].EvOff = []int64{0}
	}
	i := 0
	for _, ps := range postings {
		for _, ev := range ps.Events {
			p := &parts[part(i, ev)]
			if len(p.Kws) == 0 || p.Kws[len(p.Kws)-1] != ps.Kw {
				p.Kws = append(p.Kws, ps.Kw)
				p.EvOff = append(p.EvOff, int64(len(p.Evs)))
			}
			p.Evs = append(p.Evs, ev)
			p.EvOff[len(p.EvOff)-1] = int64(len(p.Evs))
			i++
		}
	}
	return parts
}

// sameIndex fails unless got holds what want holds: the same keywords,
// and per keyword the same events, component list and run bound.
func sameIndex(t testing.TB, got, want *Index) {
	t.Helper()
	if !slices.Equal(got.Keywords(), want.Keywords()) {
		t.Fatalf("keywords %v, want %v", got.Keywords(), want.Keywords())
	}
	for _, kw := range want.Keywords() {
		if !slices.Equal(got.Events(kw), want.Events(kw)) {
			t.Fatalf("keyword %d: events %v, want %v", kw, got.Events(kw), want.Events(kw))
		}
		if !slices.Equal(got.Comps(kw), want.Comps(kw)) || got.MaxCompEvents(kw) != want.MaxCompEvents(kw) {
			t.Fatalf("keyword %d: comps %v / %d, want %v / %d", kw,
				got.Comps(kw), got.MaxCompEvents(kw), want.Comps(kw), want.MaxCompEvents(kw))
		}
	}
}

// TestMergeEqualsBuild slices built indexes by PartitionComponents, as a
// shard-set writer does, and merges the slices back: for every shard
// count the merged index is the built one.
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
				parts := split(ix.Raw(), n, func(_ int, ev Event) int { return int(owner[in.CompOf(ev.Frag)]) })
				got, err := Merge(in, parts)
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, got, ix)
			})
		}
	}
}

// FuzzMerge splits figure1's postings into arbitrary parts — one byte per
// event picks its part — and mutates events by the (part, event, field,
// value) quadruples that follow. Merge must never panic, and whatever it
// accepts must equal FromRaw over each keyword's events of every part,
// concatenated. Parts whose components overlap are fair game: they merge
// exactly or are refused.
func FuzzMerge(f *testing.F) {
	in, ix := figure1(f)
	good := ix.Raw()
	nev := ix.NumEvents()
	assign := func(n byte, part func(i int) byte) []byte {
		b := []byte{n - 1}
		for i := 0; i < nev; i++ {
			b = append(b, part(i))
		}
		return b
	}
	f.Add(assign(1, func(int) byte { return 0 }))
	f.Add(assign(2, func(i int) byte { return byte(i % 2) }))
	f.Add(assign(2, func(i int) byte { return byte(1 - 2*i/nev) }))
	f.Add(assign(4, func(i int) byte { return byte(i / 3) }))
	f.Add(append(assign(1, func(int) byte { return 0 }), 0, 0, 0, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%4 + 1
		data = data[1:]
		parts := split(good, n, func(i int, _ Event) int {
			if i < len(data) {
				return int(data[i]) % n
			}
			return 0
		})
		for m := data[min(nev, len(data)):]; len(m) >= 4; m = m[4:] {
			p := &parts[int(m[0])%n]
			if len(p.Evs) == 0 {
				continue
			}
			ev := &p.Evs[int(m[1])%len(p.Evs)]
			switch m[2] % 3 {
			case 0:
				ev.Frag = graph.NID(int8(m[3]))
			case 1:
				ev.Src = graph.NID(int8(m[3]))
			default:
				ev.Type = ConnType(m[3])
			}
		}
		got, err := Merge(in, parts)
		if err != nil {
			return
		}
		var postings []RawPosting
		at := map[dict.ID]int{}
		for _, p := range parts {
			for _, kw := range p.Kws {
				i, ok := at[kw]
				if !ok {
					i = len(postings)
					at[kw] = i
					postings = append(postings, RawPosting{Kw: kw})
				}
				postings[i].Events = append(postings[i].Events, p.Events(kw)...)
			}
		}
		want, err := FromRaw(in, postings)
		if err != nil {
			t.Fatalf("Merge accepted parts FromRaw refuses: %v", err)
		}
		sameIndex(t, got, want)
	})
}
