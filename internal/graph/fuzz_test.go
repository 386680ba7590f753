package graph_test

import (
	"strings"
	"testing"

	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/text"
)

// addParsed runs one parsed document through the builder: a parse or an
// AddDocument error is an answer; past them Build must give an instance
// holding every node the tree has, each under the URI Walk gives it.
func addParsed(t *testing.T, root *doc.Node, err error) {
	if err != nil {
		return
	}
	b := graph.NewBuilder(text.Analyzer{Lang: text.English})
	if err := b.AddDocument(root); err != nil {
		return
	}
	in, err := b.Build()
	if err != nil {
		t.Fatalf("Build after an accepted document: %v", err)
	}
	var uris []string
	if err := doc.Walk(root, func(_ *doc.Node, uri string, _ int) error {
		uris = append(uris, uri)
		return nil
	}); err != nil {
		t.Fatalf("Walk of an accepted document: %v", err)
	}
	if in.NumNodes() != len(uris) {
		t.Fatalf("instance has %d nodes, the tree %d", in.NumNodes(), len(uris))
	}
	for _, uri := range uris {
		if _, ok := in.NIDOf(uri); !ok {
			t.Fatalf("node %q is not in the instance", uri)
		}
	}
}

// FuzzAddDocumentXML parses arbitrary XML, adds it and builds: the
// result is an error or an instance, never a panic.
func FuzzAddDocumentXML(f *testing.F) {
	for _, s := range []string{
		`<tweet lang="en" geo="Lyon"><text>When I got my M.S. in 2012</text><date>2014-05-02</date></tweet>`,
		`<a x="1"><b y="2">one <c/> two</b><b>three</b></a>`,
		`<a>t</a><!-- c -->`,
		`<a>t</a>trailing`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		root, err := doc.ParseXML("d", strings.NewReader(s))
		addParsed(t, root, err)
	})
}

// FuzzAddDocumentJSON parses arbitrary JSON, adds it and builds: the
// result is an error or an instance, never a panic.
func FuzzAddDocumentJSON(f *testing.F) {
	for _, s := range []string{
		`{
		"stars": 4,
		"summary": "Hidden gem for pasta lovers",
		"food": "The carbonara is silky and generous, truly handmade pasta",
		"service": "Waiters are attentive even on busy nights",
		"price": "Fair prices for the quality"
	}`,
		`{
		"stars": 5,
		"text": "Came for the pasta after reading this, stayed for the tiramisu"
	}`,
		`{
		"text": "Service was slow when we went, though the pasta made up for it"
	}`,
		`[1, "two", [true, null], {"d": {"d.1": "x"}}]`,
		`{"a":"x"} {"b":"y"}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		root, err := doc.ParseJSON("d", strings.NewReader(s))
		addParsed(t, root, err)
	})
}
