package s3

import (
	"slices"
	"strings"
	"testing"
	"time"

	"s3/internal/core"
)

// buildFigure1 reproduces the paper's motivating example (Figure 1)
// through the public API, with real English text flowing through the
// Porter pipeline.
func buildFigure1(t *testing.T) *Instance {
	t.Helper()
	b := NewBuilder(English)
	for _, u := range []string{"u0", "u1", "u2", "u3", "u4"} {
		if err := b.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddSocialAs("u1", "u0", 0.9, "friendOf"); err != nil {
		t.Fatal(err)
	}

	// The knowledge base: an M.S. is a degree; degree holders are
	// graduates. (Stemmed forms keep the ontology aligned with content.)
	b.AddTriple(b.Stem("m.s"), "rdfs:subClassOf", b.Stem("degree"))
	b.AddTriple(b.Stem("degree"), "rdfs:subClassOf", b.Stem("qualification"))

	d0 := &DocNode{URI: "d0", Name: "article", Children: []*DocNode{
		{Name: "sec", Text: "introduction"},
		{Name: "sec", Text: "background"},
		{Name: "sec", Children: []*DocNode{
			{Name: "par", Text: "first paragraph"},
			{Name: "par", Text: "a heated debate on education"}, // d0.3.2
		}},
		{Name: "sec", Text: "more content"},
		{Name: "sec", Children: []*DocNode{
			{Name: "par", Text: "a degree does give more opportunities"}, // d0.5.1
		}},
	}}
	if err := b.AddDocument(d0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("d0", "u0"); err != nil {
		t.Fatal(err)
	}
	// d1: u2's reply, containing the M.S. mention.
	if err := b.AddDocumentText("d1", "reply", "When I got my M.S. at UAlberta in 2012"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("d1", "u2"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddCommentAs("d1", "d0", "repliesTo"); err != nil {
		t.Fatal(err)
	}
	// d2: u3 comments on the fragment d0.3.2.
	if err := b.AddDocumentText("d2", "comment", "universities matter in this debate"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("d2", "u3"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddComment("d2", "d0.3.2"); err != nil {
		t.Fatal(err)
	}
	// u4 tags d0.5.1 with "university".
	if err := b.AddTag("a", "d0.5.1", "u4", "university"); err != nil {
		t.Fatal(err)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// The headline scenario of the paper's introduction: u1 searches for
// "graduate degree" content; d1 (which only says "M.S.") must be found
// through the ontology and the reply link.
func TestPaperMotivatingScenario(t *testing.T) {
	inst := buildFigure1(t)
	results, info, err := inst.SearchInfoed("u1", []string{"degree"}, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exact {
		t.Fatalf("expected an exact answer, got %+v", info)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	found := false
	for _, r := range results {
		if r.Document == "d1" || r.Document == "d0" {
			found = true
		}
		if r.Lower > r.Upper {
			t.Fatalf("inverted interval: %+v", r)
		}
	}
	if !found {
		t.Fatalf("semantic search missed the M.S. reply: %+v", results)
	}
}

func TestSearchFindsTaggedFragment(t *testing.T) {
	inst := buildFigure1(t)
	results, err := inst.Search("u1", []string{"university"}, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results for university")
	}
	var fragments []string
	for _, r := range results {
		fragments = append(fragments, r.URI)
	}
	joined := strings.Join(fragments, " ")
	if !strings.Contains(joined, "d0") && !strings.Contains(joined, "d2") {
		t.Fatalf("results = %v", fragments)
	}
}

func TestExtension(t *testing.T) {
	inst := buildFigure1(t)
	ext := inst.Extension("degree")
	if len(ext) < 2 {
		t.Fatalf("Extension(degree) = %v, want at least {degre, m.s}", ext)
	}
	hasMS := false
	for _, e := range ext {
		if e == "m.s" {
			hasMS = true
		}
	}
	if !hasMS {
		t.Fatalf("Extension(degree) = %v, missing m.s", ext)
	}
	if got := inst.Extension(""); got != nil {
		t.Fatalf("Extension of empty = %v", got)
	}
}

// TestExtensionResolvesAsSearch: §2 puts URIs in the keyword space
// verbatim, so a URI keyword the vocabulary holds is that term, not its
// stems; Extension must name exactly the group a search resolves it to.
func TestExtensionResolvesAsSearch(t *testing.T) {
	b := NewBuilder(English)
	if err := b.AddUser("u0"); err != nil {
		t.Fatal(err)
	}
	const coffee, espresso = "http://ex.org/Coffee", "http://ex.org/Espresso"
	b.AddTriple(espresso, "rdfs:subClassOf", coffee)
	if err := b.AddDocumentText("d0", "post", "an espresso a day"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("d0", "u0"); err != nil {
		t.Fatal(err)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range []string{coffee, espresso, "espresso"} {
		groups, ok, err := core.ResolveKeywordGroups(inst.in, []string{kw})
		if err != nil || !ok {
			t.Fatalf("%s: resolved to %v, %v, %v", kw, groups, ok, err)
		}
		var want []string
		for _, id := range groups[0] {
			want = append(want, inst.in.Dict().String(id))
		}
		if got := inst.Extension(kw); !slices.Equal(got, want) {
			t.Errorf("Extension(%s) = %v, search resolves %v", kw, got, want)
		}
	}
	if got := inst.Extension(coffee); !slices.Contains(got, coffee) || !slices.Contains(got, espresso) {
		t.Errorf("Extension(%s) = %v, want both URIs", coffee, got)
	}
}

func TestSearchOptions(t *testing.T) {
	inst := buildFigure1(t)
	// Any-time budget produces a (possibly partial) answer without error.
	_, info, err := inst.SearchInfoed("u1", []string{"university"},
		WithK(2), WithMaxIterations(1), WithGamma(2), WithEta(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if info.Exact {
		t.Fatal("1-iteration search cannot be exact here")
	}
	_, _, err = inst.SearchInfoed("u1", []string{"university"}, WithBudget(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
}

func TestSearchErrors(t *testing.T) {
	inst := buildFigure1(t)
	if _, err := inst.Search("ghost", []string{"x"}); err == nil {
		t.Fatal("expected error for unknown seeker")
	}
	if _, err := inst.Search("u1", nil); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := inst.Search("u1", []string{"the"}); err == nil {
		// "the" is a stop word: the query has no usable keywords.
		t.Fatal("expected error for stop-word-only query")
	}
}

func TestXMLAndJSONDocuments(t *testing.T) {
	b := NewBuilder(English)
	if err := b.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	err := b.AddDocumentXML("x1", strings.NewReader(
		`<post><title>Graduation day</title><body>the university ceremony</body></post>`))
	if err != nil {
		t.Fatal(err)
	}
	err = b.AddDocumentJSON("j1", strings.NewReader(
		`{"review": "a great university town", "stars": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("x1", "u"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("j1", "u"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUser("seeker"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSocial("seeker", "u", 1); err != nil {
		t.Fatal(err)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := inst.Search("seeker", []string{"university"}, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]bool{}
	for _, r := range results {
		docs[r.Document] = true
	}
	if !docs["x1"] || !docs["j1"] {
		t.Fatalf("expected both XML and JSON documents, got %+v", results)
	}
}

func TestStats(t *testing.T) {
	inst := buildFigure1(t)
	s := inst.Stats()
	if s.Users != 5 || s.Documents != 3 || s.Tags != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("stats must render")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(English)
	if err := b.AddDocument(nil); err == nil {
		t.Fatal("expected error for nil document")
	}
	if err := b.AddDocumentXML("x", strings.NewReader("<a><b></a>")); err == nil {
		t.Fatal("expected error for malformed XML")
	}
	if err := b.AddDocumentJSON("j", strings.NewReader("{")); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
	if err := b.AddSocial("nobody", "noone", 0.5); err == nil {
		t.Fatal("expected error for unknown users")
	}
}

// A nil child is refused, not dereferenced, and the refused document
// leaves the builder as it was: its URIs are free for the next one.
func TestAddDocumentNilChild(t *testing.T) {
	b := NewBuilder(Raw)
	bad := &DocNode{URI: "d", Children: []*DocNode{{Name: "sec", Children: []*DocNode{nil}}}}
	if err := b.AddDocument(bad); err == nil || err.Error() != `doc: nil child under "d.1"` {
		t.Fatalf("AddDocument with a nil child: %v", err)
	}
	if err := b.AddDocument(&DocNode{URI: "d", Children: []*DocNode{{Name: "sec"}}}); err != nil {
		t.Fatalf("the refused document's URIs stay taken: %v", err)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := inst.Stats(); s.Documents != 1 || s.Fragments != 1 {
		t.Fatalf("stats = %+v, want one document with one fragment", s)
	}
}

// Concurrent searches over one instance must be safe.
func TestConcurrentSearches(t *testing.T) {
	inst := buildFigure1(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := inst.Search("u1", []string{"university"}, WithK(3)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
