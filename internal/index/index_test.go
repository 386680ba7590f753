package index

import (
	"slices"
	"testing"

	"s3/internal/dict"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/text"
)

// figure1 builds the motivating example of the paper (Figure 1):
//
//	d0 (posted by u0) has fragments d0.3.2 and d0.5.1;
//	d1 (posted by u2) replies to d0 and contains "ms" and "alberta";
//	d2 (posted by u3) comments on d0.3.2; its fragment d2.1 contains
//	  "university";
//	u4 tags d0.5.1 with "university";
//	the ontology states ms ≺sc degree.
func figure1(t testing.TB) (*graph.Instance, *Index) {
	t.Helper()
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	for _, u := range []string{"u0", "u1", "u2", "u3", "u4", "u5"} {
		if err := b.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	b.AddOntologyTriple("ms", "rdfs:subClassOf", "degree")

	d0 := &doc.Node{URI: "d0", Name: "article", Children: []*doc.Node{
		{Name: "sec"}, {Name: "sec"},
		{Name: "sec", Children: []*doc.Node{{Name: "par"}, {Name: "par"}}}, // d0.3.2
		{Name: "sec"},
		{Name: "sec", Children: []*doc.Node{{Name: "par", Keywords: []string{"opportunity"}}}}, // d0.5.1
	}}
	d1 := &doc.Node{URI: "d1", Name: "reply", Keywords: []string{"ms", "alberta"}}
	d2 := &doc.Node{URI: "d2", Name: "comment", Children: []*doc.Node{
		{Name: "par", Keywords: []string{"university"}}, // d2.1
	}}
	for _, dn := range []*doc.Node{d0, d1, d2} {
		if err := b.AddDocument(dn); err != nil {
			t.Fatal(err)
		}
	}
	must(t, b.AddPost("d0", "u0"))
	must(t, b.AddPost("d1", "u2"))
	must(t, b.AddPost("d2", "u3"))
	must(t, b.AddComment("d1", "d0", ""))     // d1 replies to d0
	must(t, b.AddComment("d2", "d0.3.2", "")) // d2 comments on d0.3.2
	must(t, b.AddSocial("u1", "u0", 1, ""))   // u1 friend of u0
	must(t, b.AddTag("a", "d0.5.1", "u4", "university", ""))

	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return in, Build(in)
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func kwid(t *testing.T, in *graph.Instance, kw string) dict.ID {
	t.Helper()
	id, ok := in.Dict().Lookup(kw)
	if !ok {
		t.Fatalf("keyword %q not in dictionary", kw)
	}
	return id
}

func nidOf(t *testing.T, in *graph.Instance, uri string) graph.NID {
	t.Helper()
	n, ok := in.NIDOf(uri)
	if !ok {
		t.Fatalf("node %q not found", uri)
	}
	return n
}

func hasEvent(evs []Event, typ ConnType, frag, src graph.NID) bool {
	for _, e := range evs {
		if e.Type == typ && e.Frag == frag && e.Src == src {
			return true
		}
	}
	return false
}

func TestContainmentConnection(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	d2 := nidOf(t, in, "d2")
	d21 := nidOf(t, in, "d2.1")

	con := ix.ConOf(d2, uni)
	if !hasEvent(con, Contains, d21, graph.NoNID) {
		t.Fatalf("con(d2, university) = %v, want containment due to d2.1", con)
	}
	// The fragment itself is connected too (f ∈ Frag(f)).
	if con21 := ix.ConOf(d21, uni); !hasEvent(con21, Contains, d21, graph.NoNID) {
		t.Fatalf("con(d2.1, university) missing containment")
	}
	// A sibling-free ancestor chain: d0 has no containment connection to
	// "university" (only tag and comment connections).
	for _, e := range ix.ConOf(nidOf(t, in, "d0"), uni) {
		if e.Type == Contains {
			t.Fatalf("d0 must not have a containment connection to university")
		}
	}
}

// The paper's §3.2 example: the tag of u4 creates the connection
// (S3:relatedTo, d0.5.1, u4) between d0 and "university".
func TestTagConnection(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	d0 := nidOf(t, in, "d0")
	d051 := nidOf(t, in, "d0.5.1")
	u4 := nidOf(t, in, "u4")

	if con := ix.ConOf(d0, uni); !hasEvent(con, RelatedTo, d051, u4) {
		t.Fatalf("con(d0, university) = %v, want (relatedTo, d0.5.1, u4)", con)
	}
	if con := ix.ConOf(d051, uni); !hasEvent(con, RelatedTo, d051, u4) {
		t.Fatal("the tagged fragment itself must carry the tag connection")
	}
	// The disjoint fragment d0.3.2 must not be connected through the tag.
	if con := ix.ConOf(nidOf(t, in, "d0.3.2"), uni); hasEvent(con, RelatedTo, d051, u4) {
		t.Fatal("tag connection leaked to a disjoint fragment")
	}
}

// The paper's §3.2 example: since d2 (a comment on d0.3.2) contains
// "university", d0 is related to it through (S3:commentsOn, d0.3.2, d2).
func TestCommentConnection(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	d0 := nidOf(t, in, "d0")
	d032 := nidOf(t, in, "d0.3.2")
	d2 := nidOf(t, in, "d2")

	if con := ix.ConOf(d0, uni); !hasEvent(con, CommentsOn, d032, d2) {
		t.Fatalf("con(d0, university) = %v, want (commentsOn, d0.3.2, d2)", con)
	}
	// The commented fragment itself gets the connection as well.
	if con := ix.ConOf(d032, uni); !hasEvent(con, CommentsOn, d032, d2) {
		t.Fatal("con(d0.3.2, university) missing the comment connection")
	}
}

// Comment chains propagate transitively: d3 comments on d1 which replies
// to d0; a keyword of d3 must reach d0 with d3 as source.
func TestCommentChain(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddUser("u"))
	must(t, b.AddDocument(&doc.Node{URI: "d0", Name: "a"}))
	must(t, b.AddDocument(&doc.Node{URI: "d1", Name: "b"}))
	must(t, b.AddDocument(&doc.Node{URI: "d3", Name: "c", Keywords: []string{"alberta"}}))
	must(t, b.AddComment("d1", "d0", ""))
	must(t, b.AddComment("d3", "d1", ""))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(in)

	alberta := kwid(t, in, "alberta")
	d0 := nidOf(t, in, "d0")
	d1 := nidOf(t, in, "d1")
	d3 := nidOf(t, in, "d3")

	if con := ix.ConOf(d1, alberta); !hasEvent(con, CommentsOn, d1, d3) {
		t.Fatalf("con(d1, alberta) = %v, want comment connection from d3", con)
	}
	if con := ix.ConOf(d0, alberta); !hasEvent(con, CommentsOn, d0, d3) {
		t.Fatalf("con(d0, alberta) = %v, want chained comment connection with source d3", con)
	}
}

// A comment cycle (a on b, b on a) must terminate and connect both ways.
func TestCommentCycleTerminates(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddDocument(&doc.Node{URI: "a", Keywords: []string{"ka"}}))
	must(t, b.AddDocument(&doc.Node{URI: "b", Keywords: []string{"kb"}}))
	must(t, b.AddComment("a", "b", ""))
	must(t, b.AddComment("b", "a", ""))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(in) // must not hang
	ka := kwid(t, in, "ka")
	na, nb := nidOf(t, in, "a"), nidOf(t, in, "b")
	if con := ix.ConOf(nb, ka); !hasEvent(con, CommentsOn, nb, na) {
		t.Fatalf("con(b, ka) = %v, want comment connection from a", con)
	}
}

// Endorsements (keyword-less tags) inherit the endorsed node's
// connections with the endorser as source — the paper's u5 example: after
// u5 endorses d0, d0 is related to "university" through
// (S3:relatedTo, d0.5.1, u5).
func TestEndorsementInheritsConnections(t *testing.T) {
	in, ix := buildFigure1WithEndorsement(t)
	uni := kwid(t, in, "university")
	d0 := nidOf(t, in, "d0")
	d051 := nidOf(t, in, "d0.5.1")
	u5 := nidOf(t, in, "u5")

	if con := ix.ConOf(d0, uni); !hasEvent(con, RelatedTo, d051, u5) {
		t.Fatalf("con(d0, university) = %v, want endorsement-derived (relatedTo, d0.5.1, u5)", con)
	}
	// The comment-derived connection is inherited as well, keeping its
	// fragment.
	d032 := nidOf(t, in, "d0.3.2")
	if con := ix.ConOf(d0, uni); !hasEvent(con, RelatedTo, d032, u5) {
		t.Fatal("endorsement did not inherit the comment-derived connection")
	}
}

func buildFigure1WithEndorsement(t *testing.T) (*graph.Instance, *Index) {
	t.Helper()
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	for _, u := range []string{"u0", "u2", "u3", "u4", "u5"} {
		must(t, b.AddUser(u))
	}
	d0 := &doc.Node{URI: "d0", Name: "article", Children: []*doc.Node{
		{Name: "sec"}, {Name: "sec"},
		{Name: "sec", Children: []*doc.Node{{Name: "par"}, {Name: "par"}}},
		{Name: "sec"},
		{Name: "sec", Children: []*doc.Node{{Name: "par"}}},
	}}
	d2 := &doc.Node{URI: "d2", Name: "comment", Children: []*doc.Node{
		{Name: "par", Keywords: []string{"university"}},
	}}
	must(t, b.AddDocument(d0))
	must(t, b.AddDocument(d2))
	must(t, b.AddPost("d0", "u0"))
	must(t, b.AddPost("d2", "u3"))
	must(t, b.AddComment("d2", "d0.3.2", ""))
	must(t, b.AddTag("a", "d0.5.1", "u4", "university", ""))
	must(t, b.AddTag("a5", "d0", "u5", "", "")) // endorsement
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return in, Build(in)
}

// Higher-level tags (R4): a tag on a tag contributes its keyword to the
// originally tagged fragment.
func TestHigherLevelTagConnection(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddUser("u1"))
	must(t, b.AddUser("u2"))
	must(t, b.AddDocument(&doc.Node{URI: "d", Name: "x"}))
	must(t, b.AddTag("a1", "d", "u1", "topic", ""))
	must(t, b.AddTag("a2", "a1", "u2", "provenance", "NLP:recognize"))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(in)

	prov := kwid(t, in, "provenance")
	d := nidOf(t, in, "d")
	u2 := nidOf(t, in, "u2")
	if con := ix.ConOf(d, prov); !hasEvent(con, RelatedTo, d, u2) {
		t.Fatalf("con(d, provenance) = %v, want higher-level tag connection", con)
	}
	// The base tag's keyword is present too.
	topic := kwid(t, in, "topic")
	u1 := nidOf(t, in, "u1")
	if con := ix.ConOf(d, topic); !hasEvent(con, RelatedTo, d, u1) {
		t.Fatal("base tag connection missing")
	}
}

// An endorsement of a *tag* boosts the tagged fragment with the endorser
// as source.
func TestEndorsementOfTag(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddUser("u1"))
	must(t, b.AddUser("u2"))
	must(t, b.AddDocument(&doc.Node{URI: "d", Name: "x"}))
	must(t, b.AddTag("a1", "d", "u1", "topic", ""))
	must(t, b.AddTag("a2", "a1", "u2", "", "")) // endorsement of the tag
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(in)
	topic := kwid(t, in, "topic")
	d := nidOf(t, in, "d")
	u2 := nidOf(t, in, "u2")
	if con := ix.ConOf(d, topic); !hasEvent(con, RelatedTo, d, u2) {
		t.Fatalf("con(d, topic) = %v, want endorsement-of-tag connection from u2", con)
	}
}

func TestCompsAndCandidates(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	d0 := nidOf(t, in, "d0")

	comps := ix.Posting(uni).Comps()
	if len(comps) != 1 || comps[0] != in.CompOf(d0) {
		t.Fatalf("Comps(university) = %v, want the single d0 component", comps)
	}

	// Single-keyword query: candidates are every node with a university
	// connection: d0, d0.3.2 (comment), d0.3, d0.5, d0.5.1 (tag), d2, d2.1.
	groups := [][]dict.ID{{uni}}
	cands := ix.CandidatesInComp(in.CompOf(d0), groups)
	wantCands := map[string]bool{
		"d0": true, "d0.3": true, "d0.3.2": true, "d0.5": true,
		"d0.5.1": true, "d2": true, "d2.1": true,
	}
	if len(cands) != len(wantCands) {
		t.Fatalf("candidates = %v", uriList(in, cands))
	}
	for _, c := range cands {
		if !wantCands[in.URIOf(c)] {
			t.Fatalf("unexpected candidate %s", in.URIOf(c))
		}
	}

	// Conjunctive query {university, opportunity}: "opportunity" lives in
	// d0.5.1 only, so candidates shrink to ancestors of both.
	opp := kwid(t, in, "opportunity")
	cands = ix.CandidatesInComp(in.CompOf(d0), [][]dict.ID{{uni}, {opp}})
	want2 := map[string]bool{"d0": true, "d0.5": true, "d0.5.1": true}
	if len(cands) != len(want2) {
		t.Fatalf("conjunctive candidates = %v", uriList(in, cands))
	}
	for _, c := range cands {
		if !want2[in.URIOf(c)] {
			t.Fatalf("unexpected conjunctive candidate %s", in.URIOf(c))
		}
	}
}

func TestCompsForGroupsIntersects(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	ms := kwid(t, in, "ms")
	none := in.Dict().Intern("absent-keyword")

	if got := ix.CompsForGroups([][]dict.ID{{uni}, {ms}}); len(got) != 1 {
		t.Fatalf("CompsForGroups(university, ms) = %v, want 1 component", got)
	}
	if got := ix.CompsForGroups([][]dict.ID{{uni}, {none}}); len(got) != 0 {
		t.Fatalf("CompsForGroups with absent keyword = %v, want none", got)
	}
	if got := ix.CompsForGroups(nil); got != nil {
		t.Fatalf("CompsForGroups(nil) = %v, want nil", got)
	}
}

// Semantic extension at query time: Ext(degree) ∋ ms, and d1 contains ms,
// so querying the group {degree, ms} reaches d1's component.
func TestSemanticExtensionGroups(t *testing.T) {
	in, ix := figure1(t)
	degree := in.Ontology().Ext(kwid(t, in, "degree"))
	if len(degree) < 2 {
		t.Fatalf("Ext(degree) = %d entries, want ≥ 2", len(degree))
	}
	comps := ix.CompsForGroups([][]dict.ID{degree})
	d1 := nidOf(t, in, "d1")
	found := false
	for _, c := range comps {
		if c == in.CompOf(d1) {
			found = true
		}
	}
	if !found {
		t.Fatal("extension group did not reach d1's component")
	}
}

func TestMaxCompEvents(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	// Three university events live in d0's component: containment in d2.1,
	// the tag on d0.5.1 and the comment connection on d0.3.2.
	if got := ix.Posting(uni).MaxCompEvents(); got != 3 {
		t.Fatalf("MaxCompEvents(university) = %d, want 3", got)
	}
	if got := ix.Posting(in.Dict().Intern("missing")).MaxCompEvents(); got != 0 {
		t.Fatalf("MaxCompEvents(missing) = %d, want 0", got)
	}
}

func TestEventsInCompSlicing(t *testing.T) {
	in, ix := figure1(t)
	uni := kwid(t, in, "university")
	f, p := ix.Flat(), ix.Posting(uni)
	all := f.Events(uni)
	comp := in.CompOf(nidOf(t, in, "d0"))
	inComp := p.InComp(comp)
	if len(inComp) != len(all) {
		t.Fatalf("InComp = %d events, want all %d", len(inComp), len(all))
	}
	if got := p.InComp(comp + 999); len(got) != 0 {
		t.Fatalf("InComp(unknown comp) = %v, want empty", got)
	}
}

// TestPostingMatchesScan holds the resolved posting to a scan of the flat
// form, on figure1 and on the twitter serving instance: for every indexed
// keyword, and for absent ids below, between and above the indexed ones,
// Comps is its events' distinct components in order and MaxCompEvents its
// longest run; and for every component id in [-1, NumComponents], InComp
// is its events filtered by CompOf.
func TestPostingMatchesScan(t *testing.T) {
	fig, figIx := figure1(t)
	twitter := servingInstance(t, "twitter", 1)
	for _, c := range []struct {
		name string
		in   *graph.Instance
		ix   *Index
	}{{"figure1", fig, figIx}, {"twitter", twitter, Build(twitter)}} {
		f := c.ix.Flat()
		gap := slices.IndexFunc(f.Kws[1:], func(k dict.ID) bool { return !slices.Contains(f.Kws, k-1) })
		if f.Kws[0] == 0 || gap < 0 {
			t.Fatalf("%s: keywords %d…%d leave no absent id below or between them", c.name, f.Kws[0], f.Kws[len(f.Kws)-1])
		}
		absent := []dict.ID{f.Kws[0] - 1, f.Kws[gap+1] - 1, f.Kws[len(f.Kws)-1] + 1}
		for _, kw := range append(slices.Clone(f.Kws), absent...) {
			var comps []int32
			byComp := map[int32][]Event{}
			longest := 0
			for _, e := range f.Events(kw) {
				cc := c.in.CompOf(e.Frag)
				if len(byComp[cc]) == 0 {
					comps = append(comps, cc)
				}
				byComp[cc] = append(byComp[cc], e)
				longest = max(longest, len(byComp[cc]))
			}
			p := c.ix.Posting(kw)
			if !slices.Equal(p.Comps(), comps) {
				t.Fatalf("%s keyword %d: Comps %v, events' components %v", c.name, kw, p.Comps(), comps)
			}
			if p.MaxCompEvents() != longest {
				t.Fatalf("%s keyword %d: MaxCompEvents %d, longest run %d", c.name, kw, p.MaxCompEvents(), longest)
			}
			for comp := int32(-1); comp <= int32(c.in.NumComponents()); comp++ {
				if got := p.InComp(comp); !slices.Equal(got, byComp[comp]) {
					t.Fatalf("%s keyword %d: InComp(%d) = %v, filter %v", c.name, kw, comp, got, byComp[comp])
				}
			}
		}
	}
}

func uriList(in *graph.Instance, ns []graph.NID) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = in.URIOf(n)
	}
	return out
}
