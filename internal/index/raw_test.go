package index

import (
	"slices"
	"strings"
	"testing"

	"s3/internal/dict"
	"s3/internal/graph"
)

// TestFromRawRejectsRepeatedEvent: a posting that lists one event twice
// would count the event's connection twice — a longer run bound and a
// doubled term mass — so FromRaw refuses it, whatever posting it is in.
func TestFromRawRejectsRepeatedEvent(t *testing.T) {
	in, ix := figure1(t)
	good := ix.Raw()
	if _, err := FromRaw(in, good); err != nil {
		t.Fatal(err)
	}
	for i, p := range good {
		bad := slices.Clone(good)
		bad[i].Events = append(slices.Clone(p.Events), p.Events[0])
		if _, err := FromRaw(in, bad); err == nil || !strings.Contains(err.Error(), "out of canonical order") {
			t.Errorf("keyword %d with its first event repeated: %v, want the canonical-order error", p.Kw, err)
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
	for i, p := range ix.Raw() {
		for _, at := range []int{0, len(p.Events) - 1} {
			evs := slices.Clone(p.Events)
			evs[at].Frag = user
			bad := []RawPosting{{Kw: p.Kw, Events: evs}}
			if _, err := FromRaw(in, bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("posting %d event %d: FromRaw: %v, want %q", i, at, err, want)
			}
			flat := Flat{Kws: []dict.ID{p.Kw}, EvOff: []int64{0, int64(len(evs))}, Evs: evs}
			if _, err := FromFlat(in, flat); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("posting %d event %d: FromFlat: %v, want %q", i, at, err, want)
			}
			if _, err := Merge(in, []Flat{flat}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("posting %d event %d: Merge: %v, want %q", i, at, err, want)
			}
			if err := CheckOrder(in, evs); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("posting %d event %d: CheckOrder: %v, want %q", i, at, err, want)
			}
		}
	}
}

// encodePostings is the inverse of decodePostings, for seeding.
func encodePostings(ps []RawPosting) []byte {
	var b []byte
	for _, p := range ps {
		b = append(b, byte(p.Kw), byte(len(p.Events)))
		for _, e := range p.Events {
			b = append(b, byte(e.Frag), byte(e.Src), byte(e.Type))
		}
	}
	return b
}

// decodePostings reads fuzz input as postings: per posting a keyword byte
// and an event count, then per event a fragment and a source as signed
// bytes (so negatives and NoNID occur) and a type byte.
func decodePostings(b []byte) []RawPosting {
	var out []RawPosting
	for len(b) >= 2 {
		p := RawPosting{Kw: dict.ID(b[0])}
		n := int(b[1])
		b = b[2:]
		for ; n > 0 && len(b) >= 3; n-- {
			p.Events = append(p.Events, Event{Frag: graph.NID(int8(b[0])), Src: graph.NID(int8(b[1])), Type: ConnType(b[2])})
			b = b[3:]
		}
		out = append(out, p)
	}
	return out
}

// FuzzFromRaw feeds arbitrary postings over figure1's instance to FromRaw,
// the entry point of a coordinator's fetched postings. It must never
// panic, and whatever it accepts must hold, per keyword, what the one
// derivation promises, checked by brute force: events strictly in
// canonical order, Comps the distinct components in event order,
// MaxCompEvents the longest single-component run, and EventsInComp the
// events filtered by component.
func FuzzFromRaw(f *testing.F) {
	in, ix := figure1(f)
	good := ix.Raw()
	f.Add(encodePostings(good))
	repeated := slices.Clone(good)
	repeated[0].Events = append(slices.Clone(good[0].Events), good[0].Events[0])
	f.Add(encodePostings(repeated))
	f.Add(encodePostings(append(slices.Clone(good), good[0])))
	f.Fuzz(func(t *testing.T, data []byte) {
		postings := decodePostings(data)
		got, err := FromRaw(in, postings)
		if err != nil {
			return
		}
		key := func(e Event) []int64 {
			return []int64{int64(in.CompOf(e.Frag)), int64(e.Frag), int64(e.Type), int64(e.Src)}
		}
		for _, p := range postings {
			evs := got.Events(p.Kw)
			if len(evs) != len(p.Events) {
				t.Fatalf("keyword %d: %d events filed, %d given", p.Kw, len(evs), len(p.Events))
			}
			var comps []int32
			runs := map[int32]int{}
			for i, e := range evs {
				if i > 0 && slices.Compare(key(evs[i-1]), key(e)) >= 0 {
					t.Fatalf("keyword %d: events %d and %d out of canonical order", p.Kw, i-1, i)
				}
				c := in.CompOf(e.Frag)
				if !slices.Contains(comps, c) {
					comps = append(comps, c)
				}
				runs[c]++
			}
			if !slices.Equal(got.Comps(p.Kw), comps) {
				t.Fatalf("keyword %d: Comps %v, events' components %v", p.Kw, got.Comps(p.Kw), comps)
			}
			longest := 0
			for _, n := range runs {
				longest = max(longest, n)
			}
			if got.MaxCompEvents(p.Kw) != longest {
				t.Fatalf("keyword %d: MaxCompEvents %d, longest run %d", p.Kw, got.MaxCompEvents(p.Kw), longest)
			}
			for _, c := range append(comps, -1, int32(in.NumComponents())) {
				var want []Event
				for _, e := range evs {
					if in.CompOf(e.Frag) == c {
						want = append(want, e)
					}
				}
				if inComp := got.EventsInComp(p.Kw, c); !slices.Equal(inComp, want) {
					t.Fatalf("keyword %d: EventsInComp(%d) = %v, filter %v", p.Kw, c, inComp, want)
				}
			}
		}
	})
}
