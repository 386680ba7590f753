package doc

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// paperDoc builds the motivating example's d0 with fragments d0.3.2 and
// d0.5.1 at the paper's positions.
func paperDoc() *Node {
	return &Node{URI: "d0", Name: "article", Children: []*Node{
		{Name: "sec"}, {Name: "sec"},
		{Name: "sec", Children: []*Node{
			{Name: "par"},
			{Name: "par", Text: "some disputed paragraph"},
		}},
		{Name: "sec"},
		{Name: "sec", Children: []*Node{
			{Name: "par", Text: "graduation text"},
		}},
	}}
}

// visited is one node as Walk reports it.
type visited struct {
	n     *Node
	uri   string
	depth int
}

// walkAll returns what Walk visits under root, in order.
func walkAll(t *testing.T, root *Node) []visited {
	t.Helper()
	var out []visited
	if err := Walk(root, func(n *Node, uri string, depth int) error {
		out = append(out, visited{n, uri, depth})
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return out
}

// find returns the visit of the node with the given URI.
func find(t *testing.T, vs []visited, uri string) visited {
	t.Helper()
	for _, v := range vs {
		if v.uri == uri {
			return v
		}
	}
	t.Fatalf("node %s not visited", uri)
	return visited{}
}

func TestDeweyURIsAndPositions(t *testing.T) {
	vs := walkAll(t, paperDoc())
	if v := find(t, vs, "d0.3.2"); v.depth != 2 || v.n.Text != "some disputed paragraph" {
		t.Fatalf("d0.3.2 = depth %d, text %q; want depth 2, the disputed paragraph", v.depth, v.n.Text)
	}
	if v := find(t, vs, "d0.5.1"); v.depth != 2 || v.n.Text != "graduation text" {
		t.Fatalf("d0.5.1 = depth %d, text %q; want depth 2, the graduation text", v.depth, v.n.Text)
	}
	if v := find(t, vs, "d0.3"); v.depth != 1 {
		t.Fatalf("depth(d0.3) = %d, want 1", v.depth)
	}
	if vs[0].uri != "d0" || vs[0].depth != 0 {
		t.Fatalf("root visited as %q at depth %d, want d0 at 0", vs[0].uri, vs[0].depth)
	}
}

// Walk derives URIs without writing them: a tree walked twice reads the
// same, and its nodes keep the URIs they were given.
func TestWalkWritesNothing(t *testing.T) {
	root := paperDoc()
	first := walkAll(t, root)
	if !reflect.DeepEqual(root, paperDoc()) {
		t.Fatal("Walk wrote into the tree")
	}
	if second := walkAll(t, root); !reflect.DeepEqual(first, second) {
		t.Fatalf("second walk = %v, first %v", second, first)
	}
}

func TestExplicitURIsPreserved(t *testing.T) {
	root := &Node{URI: "doc", Children: []*Node{{URI: "custom-uri", Name: "x"}, {Name: "y"}}}
	vs := walkAll(t, root)
	if got := []string{vs[1].uri, vs[2].uri}; !reflect.DeepEqual(got, []string{"custom-uri", "doc.2"}) {
		t.Fatalf("child URIs = %q, want the explicit one and doc.2", got)
	}
}

func TestNewRejectsMissingRootURI(t *testing.T) {
	err := Walk(&Node{Name: "a"}, func(*Node, string, int) error { return nil })
	if err == nil || err.Error() != "doc: document root has no URI" {
		t.Fatalf("Walk of a root without a URI: %v", err)
	}
}

func TestNewRejectsNilRootAndNilChild(t *testing.T) {
	visit := func(*Node, string, int) error { return nil }
	if err := Walk(nil, visit); err == nil || err.Error() != "doc: nil root" {
		t.Fatalf("Walk(nil): %v", err)
	}
	root := &Node{URI: "d", Children: []*Node{{Name: "a"}, {Children: []*Node{nil}}}}
	if err := Walk(root, visit); err == nil || err.Error() != `doc: nil child under "d.2"` {
		t.Fatalf("Walk of a tree with a nil child: %v", err)
	}
}

// Walk stops at the first error visit returns and passes it on.
func TestWalkStopsAtVisitError(t *testing.T) {
	stop := errors.New("stop")
	var seen []string
	err := Walk(paperDoc(), func(_ *Node, uri string, _ int) error {
		seen = append(seen, uri)
		if uri == "d0.3" {
			return stop
		}
		return nil
	})
	if err != stop || !reflect.DeepEqual(seen, []string{"d0", "d0.1", "d0.2", "d0.3"}) {
		t.Fatalf("Walk = %v after %q, want stop after d0 … d0.3", err, seen)
	}
}

func TestNodesPreOrder(t *testing.T) {
	var uris []string
	for _, v := range walkAll(t, paperDoc()) {
		uris = append(uris, v.uri)
	}
	want := []string{"d0", "d0.1", "d0.2", "d0.3", "d0.3.1", "d0.3.2", "d0.4", "d0.5", "d0.5.1"}
	if !reflect.DeepEqual(uris, want) {
		t.Fatalf("pre-order = %v, want %v", uris, want)
	}
}

func TestParseXML(t *testing.T) {
	const src = `<tweet lang="en"><text>When I got my M.S. in 2012</text><date>2014-05-02</date><geo>Edmonton</geo></tweet>`
	root, err := ParseXML("t1", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if root.URI != "t1" || root.Name != "tweet" {
		t.Fatalf("root = %q/%q", root.URI, root.Name)
	}
	// Attribute becomes the first child, then text/date/geo.
	if got := root.Children[0]; got.Name != "@lang" || got.Text != "en" || got.URI != "" {
		t.Fatalf("first child = %+v, want @lang = en without a URI", got)
	}
	txt := find(t, walkAll(t, root), "t1.2").n
	if txt.Name != "text" || !strings.Contains(txt.Text, "M.S.") {
		t.Fatalf("text node wrong: %+v", txt)
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<a><b></a></b>",
		"<a>t</a><b/>",
		"<a>t</a>trailing text",
		"<a>t</a>\n<!-- c -->x",
		"junk<a>t</a>",
	} {
		if _, err := ParseXML("x", strings.NewReader(src)); err == nil {
			t.Errorf("ParseXML(%q) accepted", src)
		}
	}
}

// Whitespace, comments and processing instructions may surround the root,
// and a byte-order mark may open the document.
func TestParseXMLAllowsTrailingMarkup(t *testing.T) {
	for _, src := range []string{
		"<a>t</a>\n  <!-- done --><?pi x?>\n",
		"\ufeff<?xml version=\"1.0\"?><!-- c --><a>t</a>",
	} {
		root, err := ParseXML("x", strings.NewReader(src))
		if err != nil {
			t.Errorf("ParseXML(%q): %v", src, err)
			continue
		}
		if root.Name != "a" || root.Text != "t" {
			t.Errorf("ParseXML(%q) root = %+v", src, root)
		}
	}
}

func TestParseXMLCoalescesText(t *testing.T) {
	root, err := ParseXML("x", strings.NewReader("<a>one <b>two</b> three</a>"))
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Text; got != "one three" {
		t.Fatalf("root text = %q, want %q", got, "one three")
	}
}

func TestParseJSON(t *testing.T) {
	const src = `{"text": "a review", "stars": 4, "flags": [true, false], "nested": {"k": null}}` + "\n"
	root, err := ParseJSON("r1", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Keys sorted: flags, nested, stars, text.
	names := make([]string, 0)
	for _, c := range root.Children {
		names = append(names, c.Name)
	}
	want := []string{"flags", "nested", "stars", "text"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("child names = %v, want %v", names, want)
	}
	vs := walkAll(t, root)
	if stars := find(t, vs, "r1.3").n; stars.Text != "4" {
		t.Fatalf("stars text = %q, want 4", stars.Text)
	}
	flags := find(t, vs, "r1.1").n
	if len(flags.Children) != 2 || flags.Children[0].Name != "item" {
		t.Fatalf("array children wrong: %+v", flags.Children)
	}
}

func TestParseJSONError(t *testing.T) {
	for _, src := range []string{
		"{nope",
		`{"a":"x"} {"b":"y"} garbage`,
		`{"a":"x"} garbage`,
		`"x" "y"`,
		`[1] ]`,
	} {
		if _, err := ParseJSON("x", strings.NewReader(src)); err == nil {
			t.Errorf("ParseJSON(%q) accepted", src)
		}
	}
}
