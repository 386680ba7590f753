package graph

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"s3/internal/doc"
	"s3/internal/rdf"
	"s3/internal/text"
)

// figure3 reconstructs the instance of Figure 3 of the paper (the exact
// edge set is chosen so that the normalisation numbers of Example 2.3 come
// out: 1/(1+0.3) ≈ 0.77 for u0's edge to URI0 and 1/(1+1+1+1) = 0.25 for
// the edge leaving URI0's vertical neighbourhood).
func figure3(t *testing.T) *Instance {
	t.Helper()
	b := NewBuilder(text.Analyzer{Lang: text.None})
	for _, u := range []string{"u0", "u1", "u2", "u3"} {
		if err := b.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	uri0 := &doc.Node{URI: "URI0", Name: "doc", Children: []*doc.Node{
		{URI: "URI0.0", Name: "sec", Keywords: []string{"k0"}, Children: []*doc.Node{
			{URI: "URI0.0.0", Name: "par"},
		}},
		{URI: "URI0.1", Name: "sec", Keywords: []string{"k1"}},
	}}
	uri1 := &doc.Node{URI: "URI1", Name: "doc"}
	if err := b.AddDocument(uri0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(uri1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PostSpec{{"URI0", "u0"}, {"URI0.0", "u1"}, {"URI1", "u2"}} {
		if err := b.AddPost(p.Doc, p.User); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddComment("URI1", "URI0.1", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTag("a0", "URI0.0.0", "u2", "k2", ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range []SocialSpec{
		{"u0", "u3", 0.3, ""}, {"u1", "u3", 0.5, ""},
		{"u3", "u2", 0.5, ""}, {"u2", "u1", 0.7, ""},
	} {
		if err := b.AddSocial(s.From, s.To, s.W, s.Prop); err != nil {
			t.Fatal(err)
		}
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func nid(t *testing.T, in *Instance, uri string) NID {
	t.Helper()
	n, ok := in.NIDOf(uri)
	if !ok {
		t.Fatalf("node %q not found", uri)
	}
	return n
}

func matrixEntry(in *Instance, from, to NID) float64 {
	var got float64
	in.Matrix().Row(int(from), func(c int, v float64) {
		if c == int(to) {
			got = v
		}
	})
	return got
}

// Example 2.3: the first edge of the path u0 → URI0 ⇝ URI0.0.0 → a0 is
// normalised by the edges leaving u0 (weights 1 and 0.3) and the second by
// the four weight-1 edges leaving URI0's vertical neighbourhood.
func TestExample23PathNormalization(t *testing.T) {
	in := figure3(t)
	u0, uri0, a0 := nid(t, in, "u0"), nid(t, in, "URI0"), nid(t, in, "a0")

	if w := NeighborhoodOutWeights(in)[u0]; math.Abs(w-1.3) > 1e-12 {
		t.Fatalf("W(u0) = %v, want 1.3", w)
	}
	if got, want := matrixEntry(in, u0, uri0), 1/1.3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("normalised weight u0→URI0 = %v, want %v", got, want)
	}
	if w := NeighborhoodOutWeights(in)[uri0]; math.Abs(w-4) > 1e-12 {
		t.Fatalf("W(URI0) = %v, want 4", w)
	}
	if got := matrixEntry(in, uri0, a0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("normalised weight URI0⇝URI0.0.0→a0 = %v, want 0.25", got)
	}
}

// A node deep in the tree normalises against its own chain: URI0.0.0's
// neighbourhood is {URI0.0.0, URI0.0, URI0}, with out-weight 3.
func TestNormalizationFromDeepNode(t *testing.T) {
	in := figure3(t)
	n000 := nid(t, in, "URI0.0.0")
	if w := NeighborhoodOutWeights(in)[n000]; math.Abs(w-3) > 1e-12 {
		t.Fatalf("W(URI0.0.0) = %v, want 3", w)
	}
	if got := matrixEntry(in, n000, nid(t, in, "a0")); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("URI0.0.0→a0 = %v, want 1/3", got)
	}
	// The sibling subtree URI0.1's edge is NOT in URI0.0.0's row.
	if got := matrixEntry(in, n000, nid(t, in, "URI1")); got != 0 {
		t.Fatalf("URI0.0.0 must not reach URI1 in one step, got %v", got)
	}
}

// Every non-empty matrix row is a probability distribution: the §2.5
// normalisation divides each edge by the neighbourhood's total out-weight.
func TestMatrixRowsAreStochastic(t *testing.T) {
	in := figure3(t)
	totalW := NeighborhoodOutWeights(in)
	for v := 0; v < in.NumNodes(); v++ {
		sum := in.Matrix().RowSum(v)
		if sum == 0 {
			if totalW[v] != 0 {
				t.Fatalf("row %s empty despite W > 0", in.URIOf(NID(v)))
			}
			continue
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %s sums to %v, want 1", in.URIOf(NID(v)), sum)
		}
	}
}

func TestVerticalNeighborhood(t *testing.T) {
	in := figure3(t)
	uri0 := nid(t, in, "URI0")
	n000 := nid(t, in, "URI0.0.0")
	n01 := nid(t, in, "URI0.1")
	uri1 := nid(t, in, "URI1")

	if !in.VerticalNeighbors(uri0, n000) || !in.VerticalNeighbors(n000, uri0) {
		t.Fatal("URI0 and URI0.0.0 must be vertical neighbours")
	}
	if in.VerticalNeighbors(n000, n01) {
		t.Fatal("URI0.0.0 and URI0.1 must not be vertical neighbours (paper §2.5)")
	}
	if in.VerticalNeighbors(uri0, uri1) {
		t.Fatal("nodes of different documents are never vertical neighbours")
	}
	if l, ok := in.PosLen(uri0, n000); !ok || l != 2 {
		t.Fatalf("PosLen(URI0, URI0.0.0) = %d,%v, want 2,true", l, ok)
	}
	n00 := nid(t, in, "URI0.0")
	if !in.IsAncestorOrSelf(n000, n000) || !in.IsAncestorOrSelf(n00, n000) || in.IsAncestorOrSelf(n000, n00) {
		t.Fatal("ancestor-or-self: self and URI0.0 above URI0.0.0, not below")
	}
	if l, ok := in.PosLen(n00, n000); !ok || l != 1 {
		t.Fatalf("PosLen(URI0.0, URI0.0.0) = %d,%v, want 1,true", l, ok)
	}
	if l, ok := in.PosLen(uri0, uri0); !ok || l != 0 {
		t.Fatalf("PosLen(URI0, URI0) = %d,%v, want 0,true", l, ok)
	}
	if _, ok := in.PosLen(n000, n00); ok {
		t.Fatal("PosLen must fail when f is not in Frag(d)")
	}
	if _, ok := in.PosLen(n01, n000); ok {
		t.Fatal("PosLen must fail across disjoint subtrees")
	}
}

// There is a single component: URI0's tree, URI1 (comments on URI0.1) and
// a0 (tags URI0.0.0) are all linked by partOf/commentsOn/hasSubject edges.
func TestComponents(t *testing.T) {
	in := figure3(t)
	if in.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", in.NumComponents())
	}
	c := in.CompOf(nid(t, in, "URI0"))
	for _, uri := range []string{"URI0.0", "URI0.0.0", "URI0.1", "URI1", "a0"} {
		if got := in.CompOf(nid(t, in, uri)); got != c {
			t.Fatalf("CompOf(%s) = %d, want %d", uri, got, c)
		}
	}
	for _, u := range []string{"u0", "u1", "u2", "u3"} {
		if got := in.CompOf(nid(t, in, u)); got != -1 {
			t.Fatalf("users must not belong to components, CompOf(%s) = %d", u, got)
		}
	}
}

func TestComponentsSplitWhenUnlinked(t *testing.T) {
	b := NewBuilder(text.Analyzer{Lang: text.None})
	if err := b.AddDocument(&doc.Node{URI: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(&doc.Node{URI: "b"}); err != nil {
		t.Fatal(err)
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", in.NumComponents())
	}
}

func TestStats(t *testing.T) {
	in := figure3(t)
	s := in.Stats()
	if s.Users != 4 || s.Documents != 2 || s.Fragments != 3 || s.Tags != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SocialEdges != 4 || s.Comments != 1 || s.Posts != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.KeywordOccurrences != 2 || s.DistinctKeywords != 2 {
		t.Fatalf("keyword stats = %+v", s)
	}
	if s.Nodes != 4+5+1 {
		t.Fatalf("Nodes = %d, want 10", s.Nodes)
	}
	// 4 social + 2×(3 posts + 1 comment + 2 tag edges) directed network
	// edges + 3 tree edges.
	if s.Edges != 4+2*(3+1+2)+3 {
		t.Fatalf("Edges = %d", s.Edges)
	}
	if s.Components != 1 {
		t.Fatalf("Components = %d, want 1", s.Components)
	}
	if s.AvgSocialDegree != 1 {
		t.Fatalf("AvgSocialDegree = %v, want 1", s.AvgSocialDegree)
	}
	if s.String() == "" {
		t.Fatal("Stats.String must render")
	}
}

func TestBuilderValidation(t *testing.T) {
	a := text.Analyzer{Lang: text.None}
	t.Run("social unknown user", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		if err := b.AddSocial("u", "ghost", 0.5, ""); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("social self edge", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		if err := b.AddSocial("u", "u", 0.5, ""); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("social bad weight", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		_ = b.AddUser("v")
		if err := b.AddSocial("u", "v", 0, ""); err == nil {
			t.Fatal("expected error for weight 0")
		}
		if err := b.AddSocial("u", "v", 1.5, ""); err == nil {
			t.Fatal("expected error for weight 1.5")
		}
		if err := b.AddSocial("u", "v", math.NaN(), ""); err == nil {
			t.Fatal("expected error for weight NaN")
		}
	})
	t.Run("duplicate document", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddDocument(&doc.Node{URI: "d"})
		if err := b.AddDocument(&doc.Node{URI: "d"}); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("duplicate node URI", func(t *testing.T) {
		b := NewBuilder(a)
		err := b.AddDocument(&doc.Node{URI: "d", Children: []*doc.Node{{URI: "x"}, {URI: "x"}}})
		if err == nil || err.Error() != `doc: duplicate node URI "x" in document "d"` {
			t.Fatalf("explicit duplicate: %v", err)
		}
	})
	t.Run("explicit URI clashing with derived", func(t *testing.T) {
		b := NewBuilder(a)
		err := b.AddDocument(&doc.Node{URI: "d", Children: []*doc.Node{{URI: "d.2"}, {Name: "x"}}})
		if err == nil || err.Error() != `doc: duplicate node URI "d.2" in document "d"` {
			t.Fatalf("d.2 beside an unnamed second child: %v", err)
		}
	})
	t.Run("refused document leaves no trace", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		err := b.AddDocument(&doc.Node{URI: "d", Children: []*doc.Node{{URI: "x", Text: "lost"}, {Name: "s", Children: []*doc.Node{{URI: "x"}}}}})
		if err == nil {
			t.Fatal("expected error")
		}
		if err := b.AddPost("x", "u"); err == nil {
			t.Fatal("a refused document's node took a post")
		}
		if err := b.AddDocument(&doc.Node{URI: "d", Children: []*doc.Node{{URI: "x", Keywords: []string{"kept"}}, {Name: "s"}}}); err != nil {
			t.Fatalf("the same URIs in a later document: %v", err)
		}
		if err := b.AddPost("x", "u"); err != nil {
			t.Fatal(err)
		}
		in, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := in.NumNodes(); got != 4 {
			t.Fatalf("%d nodes, want u, d, x and d.2", got)
		}
		if ks := in.KeywordsOf(nid(t, in, "x")); len(ks) != 1 || in.Dict().String(ks[0]) != "kept" {
			t.Fatalf("keywords of x = %v, want only kept", ks)
		}
		if _, ok := in.Dict().Lookup("lost"); ok {
			t.Fatal("the refused document's keyword is in the dictionary")
		}
		if in.ParentOf(nid(t, in, "d.2")) != nid(t, in, "d") {
			t.Fatal("d.2's parent is not d")
		}
	})
	t.Run("doc URI clashing with user", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("x")
		if err := b.AddDocument(&doc.Node{URI: "x"}); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("post unknown doc", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		if err := b.AddPost("ghost", "u"); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("comment on own node", func(t *testing.T) {
		b := NewBuilder(a)
		root := &doc.Node{URI: "d", Children: []*doc.Node{{Name: "x"}}}
		_ = b.AddDocument(root)
		if err := b.AddComment("d", "d.1", ""); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("comment from non-root", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddDocument(&doc.Node{URI: "d", Children: []*doc.Node{{Name: "x"}}})
		_ = b.AddDocument(&doc.Node{URI: "e"})
		if err := b.AddComment("d.1", "e", ""); err == nil {
			t.Fatal("expected error: comments must be document roots")
		}
	})
	t.Run("tag on user", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		if err := b.AddTag("a", "u", "u", "k", ""); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("tag duplicate URI", func(t *testing.T) {
		b := NewBuilder(a)
		_ = b.AddUser("u")
		_ = b.AddDocument(&doc.Node{URI: "d"})
		_ = b.AddTag("a", "d", "u", "k", "")
		if err := b.AddTag("a", "d", "u", "k", ""); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("user idempotent", func(t *testing.T) {
		b := NewBuilder(a)
		if err := b.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		if err := b.AddUser("u"); err != nil {
			t.Fatalf("re-adding a user must be a no-op, got %v", err)
		}
	})
}

// Tags on tags (requirement R4) are accepted and recorded.
func TestHigherLevelTags(t *testing.T) {
	b := NewBuilder(text.Analyzer{Lang: text.None})
	_ = b.AddUser("u")
	_ = b.AddDocument(&doc.Node{URI: "d"})
	if err := b.AddTag("a1", "d", "u", "k", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTag("a2", "a1", "u", "prov", "NLP:recognize"); err != nil {
		t.Fatal(err)
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a2 := nid(t, in, "a2")
	ti, ok := in.TagInfoOf(a2)
	if !ok {
		t.Fatal("a2 has no TagInfo")
	}
	if in.KindOf(ti.Subject) != KindTag {
		t.Fatal("a2's subject must be the tag a1")
	}
	// The custom type is a subclass of S3:relatedTo in the ontology.
	if !inExtension(in, ClassRelatedTo, "NLP:recognize") {
		t.Fatal("custom tag class not registered as subclass of S3:relatedTo")
	}
	if in.NumComponents() != 1 {
		t.Fatalf("tag chain must join the document's component, got %d", in.NumComponents())
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in := figure3(t)
	b := NewBuilder(text.Analyzer{Lang: text.None})
	// Rebuild the same spec through the builder used by figure3.
	spec := figure3Spec(t)
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildSpec(*decoded, b.analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Stats(), rebuilt.Stats()) {
		t.Fatalf("stats differ after round-trip:\n%v\nvs\n%v", in.Stats(), rebuilt.Stats())
	}
	// Spot-check a matrix entry survives the round-trip.
	u0 := nid(t, rebuilt, "u0")
	uri0 := nid(t, rebuilt, "URI0")
	if got, want := matrixEntry(rebuilt, u0, uri0), 1/1.3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("matrix entry after round-trip = %v, want %v", got, want)
	}
}

func figure3Spec(t *testing.T) Spec {
	t.Helper()
	return Spec{
		Users: []string{"u0", "u1", "u2", "u3"},
		Social: []SocialSpec{
			{"u0", "u3", 0.3, ""}, {"u1", "u3", 0.5, ""},
			{"u3", "u2", 0.5, ""}, {"u2", "u1", 0.7, ""},
		},
		Docs: []*doc.Node{
			{URI: "URI0", Name: "doc", Children: []*doc.Node{
				{URI: "URI0.0", Name: "sec", Keywords: []string{"k0"}, Children: []*doc.Node{
					{URI: "URI0.0.0", Name: "par"},
				}},
				{URI: "URI0.1", Name: "sec", Keywords: []string{"k1"}},
			}},
			{URI: "URI1", Name: "doc"},
		},
		Posts:    []PostSpec{{"URI0", "u0"}, {"URI0.0", "u1"}, {"URI1", "u2"}},
		Comments: []CommentSpec{{"URI1", "URI0.1", ""}},
		Tags:     []TagSpec{{URI: "a0", Subject: "URI0.0.0", Author: "u2", Keyword: "k2"}},
	}
}

func TestExportRDF(t *testing.T) {
	in := figure3(t)
	g := in.ExportRDF()
	checks := [][3]string{
		{"u0", "rdf:type", ClassUser},
		{"URI0", "rdf:type", ClassDoc},
		{"URI0.0", PropPartOf, "URI0"},
		{"URI0.0.0", PropPartOf, "URI0.0"},
		{"URI0.0", PropContains, "k0"},
		{"URI0", PropPostedBy, "u0"},
		{"u0", PropPostedByInv, "URI0"},
		{"URI1", PropCommentsOn, "URI0.1"},
		{"a0", "rdf:type", ClassRelatedTo},
		{"a0", PropHasSubject, "URI0.0.0"},
		{"a0", PropHasKeyword, "k2"},
		{"a0", PropHasAuthor, "u2"},
	}
	for _, c := range checks {
		if !g.HasStr(c[0], c[1], c[2]) {
			t.Errorf("exported RDF missing (%s %s %s)", c[0], c[1], c[2])
		}
	}
	// Social edges keep their weights.
	s, _ := g.Dict().Lookup("u0")
	p, _ := g.Dict().Lookup(PropSocial)
	o, _ := g.Dict().Lookup("u3")
	if w, ok := g.Weight(s, p, o); !ok || w != 0.3 {
		t.Fatalf("social weight in export = %v,%v, want 0.3,true", w, ok)
	}
}

func TestSortedKeywordsByFrequency(t *testing.T) {
	b := NewBuilder(text.Analyzer{Lang: text.None})
	_ = b.AddDocument(&doc.Node{URI: "d1", Keywords: []string{"rare", "common"}})
	_ = b.AddDocument(&doc.Node{URI: "d2", Keywords: []string{"common"}})
	_ = b.AddDocument(&doc.Node{URI: "d3", Keywords: []string{"common"}})
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	kws := in.SortedKeywordsByFrequency()
	if len(kws) != 2 {
		t.Fatalf("keyword count = %d, want 2", len(kws))
	}
	if in.Dict().String(kws[0]) != "rare" || in.Dict().String(kws[1]) != "common" {
		t.Fatalf("order wrong: %s, %s", in.Dict().String(kws[0]), in.Dict().String(kws[1]))
	}
	if in.KeywordFrequency(kws[1]) != 3 {
		t.Fatalf("freq(common) = %d, want 3", in.KeywordFrequency(kws[1]))
	}
}

// Custom social sub-properties register themselves in the ontology so that
// S3:social generalises them (§2.2 extensibility).
func TestCustomSocialSubProperty(t *testing.T) {
	b := NewBuilder(text.Analyzer{Lang: text.None})
	_ = b.AddUser("u")
	_ = b.AddUser("v")
	if err := b.AddSocial("u", "v", 1, "vdk:follow"); err != nil {
		t.Fatal(err)
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !inExtension(in, PropSocial, "vdk:follow") {
		t.Fatal("vdk:follow not registered under S3:social")
	}
}

// inExtension reports whether b is in the ontology extension of keyword k
// (Definition 2.1): k's sub-classes, sub-properties and instances.
func inExtension(in *Instance, k, b string) bool {
	kid, ok1 := in.Dict().Lookup(k)
	bid, ok2 := in.Dict().Lookup(b)
	return ok1 && ok2 && slices.Contains(in.Ontology().Ext(kid), bid)
}

// cloneNode returns a deep copy of the tree rooted at n.
func cloneNode(n *doc.Node) *doc.Node {
	c := *n
	c.Keywords = slices.Clone(n.Keywords)
	c.Children = nil
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch))
	}
	return &c
}

// A Spec built twice, with two analyzers, is analysed by each: a build
// only reads the spec — the caller's nodes keep their Keywords as given
// and no derived URI — so the second does not index the first one's
// stems, and the spec reads as before the builds.
func TestBuildSpecLeavesKeywordsUnset(t *testing.T) {
	spec := Spec{Docs: []*doc.Node{{URI: "d", Name: "post", Text: "Running dogs and cats", Children: []*doc.Node{
		{Name: "sec", Text: "Sleeping cats", Children: []*doc.Node{{Name: "par", Text: "dogs"}}},
		{Name: "sec", Keywords: []string{"given"}},
	}}}}
	before := Spec{Docs: []*doc.Node{cloneNode(spec.Docs[0])}}
	words := func(a text.Analyzer, uri string) []string {
		t.Helper()
		in, err := BuildSpec(spec, a)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range in.KeywordsOf(nid(t, in, uri)) {
			out = append(out, in.Dict().String(k))
		}
		return out
	}
	if got, want := words(text.Analyzer{Lang: text.English}, "d"), []string{"run", "dog", "cat"}; !slices.Equal(got, want) {
		t.Fatalf("English keywords %q, want %q", got, want)
	}
	if spec.Docs[0].Keywords != nil {
		t.Fatalf("BuildSpec wrote keywords %q into the caller's node", spec.Docs[0].Keywords)
	}
	if got, want := words(text.Analyzer{Lang: text.None}, "d"), []string{"running", "dogs", "and", "cats"}; !slices.Equal(got, want) {
		t.Fatalf("keywords without stemming %q, want %q: the first build's analysis leaked", got, want)
	}
	if got, want := words(text.Analyzer{Lang: text.None}, "d.1"), []string{"sleeping", "cats"}; !slices.Equal(got, want) {
		t.Fatalf("keywords of d.1 %q, want %q", got, want)
	}
	if got, want := words(text.Analyzer{Lang: text.English}, "d.2"), []string{"given"}; !slices.Equal(got, want) {
		t.Fatalf("keywords of d.2 %q, want the given %q", got, want)
	}
	if !reflect.DeepEqual(spec, before) {
		t.Fatalf("BuildSpec wrote into the spec: %+v, was %+v", spec.Docs[0], before.Docs[0])
	}
}

// Each sub-property or subclass declaration a relation makes is recorded
// once, at its first use, however many relations use it; a declaration
// the ontology already states is not repeated.
func TestDeclarationsRecordedOnce(t *testing.T) {
	b := NewBuilder(text.Analyzer{Lang: text.None})
	b.AddOntologyTriple("tw:repliesTo", rdf.SubPropertyOfURI, PropCommentsOn)
	for i := range 100 {
		u := fmt.Sprintf("u%d", i)
		if err := b.AddUser(u); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := b.AddSocial(u, "u0", 0.5, "vdk:follow"); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = b.AddDocument(&doc.Node{URI: "d"})
	_ = b.AddDocument(&doc.Node{URI: "e"})
	for i := range 3 {
		if err := b.AddComment("e", "d", "tw:repliesTo"); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTag(fmt.Sprintf("a%d", i), "d", "u1", "k", "NLP:recognize"); err != nil {
			t.Fatal(err)
		}
	}
	want := [][3]string{
		{"tw:repliesTo", rdf.SubPropertyOfURI, PropCommentsOn},
		{"vdk:follow", rdf.SubPropertyOfURI, PropSocial},
		{"NLP:recognize", rdf.SubClassOfURI, ClassRelatedTo},
	}
	if got := b.Spec().Ontology; !reflect.DeepEqual(got, want) {
		t.Fatalf("ontology %q, want %q", got, want)
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !inExtension(in, PropSocial, "vdk:follow") || !inExtension(in, ClassRelatedTo, "NLP:recognize") {
		t.Fatal("a declaration recorded once is missing from the ontology")
	}
}

// Spec gives back what the builder was fed, strings as given.
func TestBuilderSpecRoundTrip(t *testing.T) {
	spec := figure3Spec(t)
	spec.Ontology = [][3]string{{"k0", rdf.SubClassOfURI, "k"}}
	spec.Social[0].Prop = "vdk:follow"
	spec.Tags = append(spec.Tags, TagSpec{URI: "a1", Subject: "a0", Author: "u0", Type: ClassRelatedTo})
	b := NewBuilder(text.Analyzer{Lang: text.None})
	for _, tr := range spec.Ontology {
		b.AddOntologyTriple(tr[0], tr[1], tr[2])
	}
	for _, u := range spec.Users {
		_ = b.AddUser(u)
	}
	for _, s := range spec.Social {
		_ = b.AddSocial(s.From, s.To, s.W, s.Prop)
	}
	for _, d := range spec.Docs {
		_ = b.AddDocument(d)
	}
	for _, p := range spec.Posts {
		_ = b.AddPost(p.Doc, p.User)
	}
	for _, c := range spec.Comments {
		_ = b.AddComment(c.Comment, c.Target, c.Prop)
	}
	for _, tg := range spec.Tags {
		if err := b.AddTag(tg.URI, tg.Subject, tg.Author, tg.Keyword, tg.Type); err != nil {
			t.Fatal(err)
		}
	}
	spec.Ontology = append(spec.Ontology, [3]string{"vdk:follow", rdf.SubPropertyOfURI, PropSocial})
	if got := b.Spec(); !reflect.DeepEqual(got, spec) {
		t.Fatalf("Spec() = %+v\nwant %+v", got, spec)
	}
}
