package index

import (
	"math/rand"
	"testing"

	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/text"
)

// naiveBuild recomputes the connection events with a deliberately simple
// full-recomputation fixpoint (no cursors, no incremental pulls) directly
// from the §3.2 rules. It serves as an independent oracle for the
// optimised builder.
func naiveBuild(in *graph.Instance) map[dict.ID]map[Event]struct{} {
	type tagEntry struct {
		kw   dict.ID
		frag graph.NID
		src  graph.NID
	}
	events := make(map[dict.ID]map[Event]struct{})
	tagCon := make(map[graph.NID]map[tagEntry]struct{})
	for _, tag := range in.Tags() {
		tagCon[tag] = make(map[tagEntry]struct{})
	}
	addEvent := func(kw dict.ID, ev Event) bool {
		m := events[kw]
		if m == nil {
			m = make(map[Event]struct{})
			events[kw] = m
		}
		if _, dup := m[ev]; dup {
			return false
		}
		m[ev] = struct{}{}
		return true
	}

	// Rule 1 — containment.
	for _, root := range in.DocRoots() {
		var nodes []graph.NID
		nodes = in.SubtreeOf(root, nodes)
		for _, n := range nodes {
			for _, kw := range in.KeywordsOf(n) {
				addEvent(kw, Event{Frag: n, Src: graph.NoNID, Type: Contains})
			}
		}
	}
	bottom := func(tag graph.NID) graph.NID {
		cur := tag
		for in.KindOf(cur) == graph.KindTag {
			ti, _ := in.TagInfoOf(cur)
			cur = ti.Subject
		}
		return cur
	}
	// Rule 2 base — keyword tags.
	for _, tag := range in.Tags() {
		ti, _ := in.TagInfoOf(tag)
		if ti.Keyword != dict.NoID {
			tagCon[tag][tagEntry{kw: ti.Keyword, frag: bottom(tag), src: ti.Author}] = struct{}{}
		}
	}

	for changed := true; changed; {
		changed = false
		// Rule 3 — endorsements inherit; higher-level tags flow.
		for _, tag := range in.Tags() {
			ti, _ := in.TagInfoOf(tag)
			if ti.Keyword == dict.NoID {
				if in.KindOf(ti.Subject) == graph.KindDocNode {
					for kw, m := range events {
						for ev := range m {
							if in.IsAncestorOrSelf(ti.Subject, ev.Frag) {
								e := tagEntry{kw: kw, frag: ev.Frag, src: ti.Author}
								if _, dup := tagCon[tag][e]; !dup {
									tagCon[tag][e] = struct{}{}
									changed = true
								}
							}
						}
					}
				} else {
					for e := range tagCon[ti.Subject] {
						ne := tagEntry{kw: e.kw, frag: e.frag, src: ti.Author}
						if _, dup := tagCon[tag][ne]; !dup {
							tagCon[tag][ne] = struct{}{}
							changed = true
						}
					}
				}
			}
			if in.KindOf(ti.Subject) == graph.KindDocNode {
				for e := range tagCon[tag] {
					if addEvent(e.kw, Event{Frag: e.frag, Src: e.src, Type: RelatedTo}) {
						changed = true
					}
				}
			} else {
				for e := range tagCon[tag] {
					if _, dup := tagCon[ti.Subject][e]; !dup {
						tagCon[ti.Subject][e] = struct{}{}
						changed = true
					}
				}
			}
		}
		// Rule 4 — comments.
		for _, ce := range in.Comments() {
			for kw, m := range events {
				for ev := range m {
					if in.DocRootOf(ev.Frag) != ce.Comment {
						continue
					}
					src := ev.Src
					if ev.Type == Contains {
						src = ce.Comment
					}
					if addEvent(kw, Event{Frag: ce.Target, Src: src, Type: CommentsOn}) {
						changed = true
					}
				}
			}
		}
	}
	return events
}

// The optimised fixpoint must produce exactly the naive oracle's event
// sets on random instances rich in tags-on-tags, endorsements and comment
// chains.
func TestIndexMatchesNaiveOracle(t *testing.T) {
	opts := datagen.DefaultRandomOptions()
	opts.TagDensity = 1.5 // stress tag machinery
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := datagen.RandomSpec(rng, opts)
		in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
		if err != nil {
			t.Fatal(err)
		}
		f := Build(in).Flat()
		want := naiveBuild(in)

		// Every oracle event must be indexed, and vice versa.
		for kw, m := range want {
			got := f.Events(kw)
			if len(got) != len(m) {
				t.Fatalf("seed %d: keyword %s has %d events, oracle %d",
					seed, in.Dict().String(kw), len(got), len(m))
			}
			for _, ev := range got {
				if _, ok := m[ev]; !ok {
					t.Fatalf("seed %d: spurious event %+v for %s", seed, ev, in.Dict().String(kw))
				}
			}
		}
		// No indexed keyword outside the oracle.
		for _, root := range in.DocRoots() {
			var nodes []graph.NID
			nodes = in.SubtreeOf(root, nodes)
			for _, n := range nodes {
				for _, kw := range in.KeywordsOf(n) {
					if len(f.Events(kw)) == 0 {
						t.Fatalf("seed %d: contained keyword %s has no events", seed, in.Dict().String(kw))
					}
				}
			}
		}
	}
}
