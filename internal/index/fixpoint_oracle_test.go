package index

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/text"
)

// TestBuildEqualsNaiveFixpoint holds Build to the postings of refBuild
// below — every keyword, every event, in the frozen order — on the three
// dataset generators and on hand fixtures for what the generators barely
// exercise.
func TestBuildEqualsNaiveFixpoint(t *testing.T) {
	check := func(name string, in *graph.Instance) {
		t.Helper()
		got, want := Build(in).Flat(), refBuild(in)
		if len(want.Kws) == 0 {
			t.Fatalf("%s: the reference indexed nothing", name)
		}
		if !slices.Equal(got.Kws, want.Kws) {
			t.Fatalf("%s: keywords %v, reference %v", name, got.Kws, want.Kws)
		}
		for _, kw := range want.Kws {
			if !slices.Equal(got.Events(kw), want.Events(kw)) {
				t.Fatalf("%s: posting of %s differs from the reference:\n got %v\nwant %v", name,
					in.Dict().String(kw), got.Events(kw), want.Events(kw))
			}
		}
	}
	none := text.Analyzer{Lang: text.None}
	fromSpec := func(name string, spec graph.Spec) {
		t.Helper()
		in, err := graph.BuildSpec(spec, none)
		if err != nil {
			t.Fatal(err)
		}
		check(name, in)
	}

	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets, to.Seed = 200, 800, 5
	twitter, _ := datagen.Twitter(to)
	fromSpec("twitter", twitter)
	vo := datagen.DefaultVodkasterOptions()
	vo.Users, vo.Movies, vo.Seed = 120, 90, 5
	fromSpec("vodkaster", datagen.Vodkaster(vo))
	yo := datagen.DefaultYelpOptions()
	yo.Users, yo.Businesses, yo.Seed = 150, 100, 5
	fromSpec("yelp", datagen.Yelp(yo))

	fixture := func(name string, fill func(b *graph.Builder)) {
		t.Helper()
		b := graph.NewBuilder(none)
		fill(b)
		in, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		check(name, in)
	}
	// Fifty endorsers of one fragment: each of the k endorsement tags
	// inherits the fragment's connections, the other k-1 endorsers'
	// relatedTo events among them.
	fixture("50 endorsers", func(b *graph.Builder) {
		must(t, b.AddDocument(&doc.Node{URI: "d", Keywords: []string{"x"}, Children: []*doc.Node{
			{Name: "par", Keywords: []string{"y", "z"}},
		}}))
		must(t, b.AddDocument(&doc.Node{URI: "c", Keywords: []string{"w"}}))
		must(t, b.AddComment("c", "d.1", ""))
		for i := 0; i < 50; i++ {
			u := fmt.Sprintf("u%d", i)
			must(t, b.AddUser(u))
			subject := "d.1"
			if i%5 == 0 {
				subject = "d" // some endorse the whole document
			}
			must(t, b.AddTag(fmt.Sprintf("e%d", i), subject, u, "", ""))
		}
		must(t, b.AddTag("k", "d.1", "u0", "v", ""))
	})
	fixture("endorsement of an endorsement of a keyword tag", func(b *graph.Builder) {
		for _, u := range []string{"u1", "u2", "u3", "u4"} {
			must(t, b.AddUser(u))
		}
		must(t, b.AddDocument(&doc.Node{URI: "d", Keywords: []string{"x"}}))
		must(t, b.AddTag("t1", "d", "u1", "k", ""))
		must(t, b.AddTag("t2", "t1", "u2", "", ""))
		must(t, b.AddTag("t3", "t2", "u3", "", ""))
		must(t, b.AddTag("t4", "t3", "u4", "j", "")) // a keyword on top of the chain flows down
	})
	fixture("comment cycle", func(b *graph.Builder) {
		must(t, b.AddUser("u"))
		must(t, b.AddDocument(&doc.Node{URI: "a", Keywords: []string{"ka"}}))
		must(t, b.AddDocument(&doc.Node{URI: "b", Keywords: []string{"kb"}}))
		must(t, b.AddDocument(&doc.Node{URI: "c", Keywords: []string{"kc"}}))
		must(t, b.AddComment("a", "b", ""))
		must(t, b.AddComment("b", "c", ""))
		must(t, b.AddComment("c", "a", ""))
		must(t, b.AddTag("e", "b", "u", "", "")) // endorsed inside the cycle
	})
	fixture("a node listing one keyword twice", func(b *graph.Builder) {
		must(t, b.AddUser("u"))
		must(t, b.AddDocument(&doc.Node{URI: "d", Keywords: []string{"x", "y", "x", "x"}}))
		must(t, b.AddDocument(&doc.Node{URI: "c", Keywords: []string{"y", "y"}}))
		must(t, b.AddComment("c", "d", ""))
		must(t, b.AddTag("e", "d", "u", "", ""))
	})
}

// The reference below is the fixpoint Build ran before it was made linear
// in the instance, unchanged but for the ref prefix on its names: maps
// keyed by node id, a per-node map to deduplicate keywords, a reflective
// sort — and rule 3 walking every event of the endorsed document, so k
// endorsers of one fragment probe k² (keyword, fragment, author) entries.

type refEventKey struct {
	kw   dict.ID
	frag graph.NID
	src  graph.NID
	typ  ConnType
}

type refTagEntry struct {
	kw   dict.ID
	frag graph.NID
	src  graph.NID
}

type refKwEvent struct {
	kw dict.ID
	ev Event
}

// refBuild is the reference fixpoint, frozen and flattened.
func refBuild(in *graph.Instance) Flat {
	b := &refBuilder{
		in:          in,
		seen:        make(map[refEventKey]struct{}),
		byKw:        make(map[dict.ID][]Event),
		perDoc:      make(map[graph.NID][]refKwEvent),
		tagCon:      make(map[graph.NID][]refTagEntry),
		tagSeenFull: make(map[refTagEntryKey]struct{}),
	}
	b.run()
	return b.freeze()
}

type refBuilder struct {
	in     *graph.Instance
	seen   map[refEventKey]struct{}
	byKw   map[dict.ID][]Event
	perDoc map[graph.NID][]refKwEvent // doc root → events anchored in that doc

	tagCon      map[graph.NID][]refTagEntry
	tagSeenFull map[refTagEntryKey]struct{}

	// cursors for incremental pulls during the fixpoint
	commentCursor map[int]int       // comment edge index → perDoc offset
	endorseCursor map[graph.NID]int // endorsement tag → offset (perDoc or subject tagCon)
	flowCursor    map[graph.NID]int // tag → offset into its own tagCon already flowed out
	changed       bool
}

func (b *refBuilder) addEvent(kw dict.ID, ev Event) {
	k := refEventKey{kw: kw, frag: ev.Frag, src: ev.Src, typ: ev.Type}
	if _, dup := b.seen[k]; dup {
		return
	}
	b.seen[k] = struct{}{}
	b.byKw[kw] = append(b.byKw[kw], ev)
	root := b.in.DocRootOf(ev.Frag)
	b.perDoc[root] = append(b.perDoc[root], refKwEvent{kw: kw, ev: ev})
	b.changed = true
}

// refTagEntryKey dedups (tag, connection entry) pairs during the fixpoint.
type refTagEntryKey struct {
	tag  graph.NID
	kw   dict.ID
	frag graph.NID
	src  graph.NID
}

func (b *refBuilder) addTagEntry(tag graph.NID, e refTagEntry) {
	key := refTagEntryKey{tag: tag, kw: e.kw, frag: e.frag, src: e.src}
	if _, dup := b.tagSeenFull[key]; dup {
		return
	}
	b.tagSeenFull[key] = struct{}{}
	b.tagCon[tag] = append(b.tagCon[tag], e)
	b.changed = true
}

func (b *refBuilder) run() {
	in := b.in

	// Rule 1: containment events.
	for _, root := range in.DocRoots() {
		var nodes []graph.NID
		nodes = in.SubtreeOf(root, nodes)
		for _, n := range nodes {
			for _, kw := range refDedupe(in.KeywordsOf(n)) {
				b.addEvent(kw, Event{Frag: n, Src: graph.NoNID, Type: Contains})
			}
		}
	}

	// Rule 2 base: keyword tags contribute (kw, φ(tag), author) where
	// φ(tag) is the document node at the bottom of the subject chain.
	for _, tag := range in.Tags() {
		ti, _ := in.TagInfoOf(tag)
		if ti.Keyword == dict.NoID {
			continue
		}
		b.addTagEntry(tag, refTagEntry{kw: ti.Keyword, frag: b.bottomFragment(tag), src: ti.Author})
	}

	b.commentCursor = make(map[int]int)
	b.endorseCursor = make(map[graph.NID]int)
	b.flowCursor = make(map[graph.NID]int)

	// Fixpoint: endorsement inheritance, tag-chain flow and comment
	// propagation feed each other.
	for {
		b.changed = false
		b.stepTags()
		b.stepComments()
		if !b.changed {
			break
		}
	}
}

// bottomFragment walks the subject chain of a tag down to a document node.
func (b *refBuilder) bottomFragment(tag graph.NID) graph.NID {
	cur := tag
	for b.in.KindOf(cur) == graph.KindTag {
		ti, _ := b.in.TagInfoOf(cur)
		cur = ti.Subject
	}
	return cur
}

func (b *refBuilder) stepTags() {
	in := b.in
	for _, tag := range in.Tags() {
		ti, _ := in.TagInfoOf(tag)

		// Rule 3: endorsements inherit the subject's connections with the
		// endorser as source.
		if ti.Keyword == dict.NoID {
			if in.KindOf(ti.Subject) == graph.KindDocNode {
				root := in.DocRootOf(ti.Subject)
				list := b.perDoc[root]
				for i := b.endorseCursor[tag]; i < len(list); i++ {
					ke := list[i]
					if !in.IsAncestorOrSelf(ti.Subject, ke.ev.Frag) {
						continue
					}
					b.addTagEntry(tag, refTagEntry{kw: ke.kw, frag: ke.ev.Frag, src: ti.Author})
				}
				b.endorseCursor[tag] = len(list)
			} else { // endorsement of a tag
				list := b.tagCon[ti.Subject]
				for i := b.endorseCursor[tag]; i < len(list); i++ {
					e := list[i]
					b.addTagEntry(tag, refTagEntry{kw: e.kw, frag: e.frag, src: ti.Author})
				}
				b.endorseCursor[tag] = len(list)
			}
		}

		// Flow this tag's connections outwards: to the tagged fragment's
		// ancestors (as events) if the subject is a document node, or into
		// the subject tag (higher-level tags add their connections to the
		// thing they annotate).
		list := b.tagCon[tag]
		for i := b.flowCursor[tag]; i < len(list); i++ {
			e := list[i]
			if in.KindOf(ti.Subject) == graph.KindDocNode {
				b.addEvent(e.kw, Event{Frag: e.frag, Src: e.src, Type: RelatedTo})
			} else {
				b.addTagEntry(ti.Subject, e)
			}
		}
		b.flowCursor[tag] = len(list)
	}
}

func (b *refBuilder) stepComments() {
	in := b.in
	for ci, ce := range in.Comments() {
		list := b.perDoc[ce.Comment] // the comment is a document root
		for i := b.commentCursor[ci]; i < len(list); i++ {
			ke := list[i]
			src := ke.ev.Src
			if ke.ev.Type == Contains {
				// The source of a containment connection of the comment is
				// the comment document itself.
				src = ce.Comment
			}
			b.addEvent(ke.kw, Event{Frag: ce.Target, Src: src, Type: CommentsOn})
		}
		b.commentCursor[ci] = len(list)
	}
}

// freeze sorts each posting into the canonical order and lays the
// postings out by keyword.
func (b *refBuilder) freeze() Flat {
	in := b.in
	out := Flat{EvOff: []int64{0}}
	for kw := range b.byKw {
		out.Kws = append(out.Kws, kw)
	}
	slices.Sort(out.Kws)
	for _, kw := range out.Kws {
		evs := b.byKw[kw]
		sort.Slice(evs, func(i, j int) bool {
			ci, cj := in.CompOf(evs[i].Frag), in.CompOf(evs[j].Frag)
			if ci != cj {
				return ci < cj
			}
			if evs[i].Frag != evs[j].Frag {
				return evs[i].Frag < evs[j].Frag
			}
			if evs[i].Type != evs[j].Type {
				return evs[i].Type < evs[j].Type
			}
			return evs[i].Src < evs[j].Src
		})
		out.Evs = append(out.Evs, evs...)
		out.EvOff = append(out.EvOff, int64(len(out.Evs)))
	}
	return out
}

func refDedupe(ids []dict.ID) []dict.ID {
	if len(ids) < 2 {
		return ids
	}
	seen := make(map[dict.ID]struct{}, len(ids))
	out := ids[:0:0]
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
