package rdf

import (
	"bytes"
	"strings"
	"testing"
)

func sampleGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewWithDict()
	g.Add("u1", TypeURI, "S3:user")
	g.Add("u2", TypeURI, "S3:user")
	g.Add("d1", TypeURI, "S3:doc")
	g.Add("d1", "S3:postedBy", "u1")
	g.Add("d2", TypeURI, "S3:doc")
	g.Add("d2", "S3:postedBy", "u2")
	g.Add("d2", "S3:commentsOn", "d1")
	g.AddWeighted("u1", "S3:social", "u2", 0.5)
	return g
}

func TestQuerySinglePattern(t *testing.T) {
	g := sampleGraph(t)
	bs, err := g.QueryStrings("?u rdf:type S3:user")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("bindings = %d, want 2", len(bs))
	}
	var users []string
	for _, b := range bs {
		u, ok := b.Resolve(g.Dict(), "u")
		if !ok {
			t.Fatal("variable u unbound")
		}
		users = append(users, u)
	}
	if users[0] != "u1" || users[1] != "u2" {
		t.Fatalf("users = %v (order must be deterministic)", users)
	}
}

// The §2.2-style extensibility query: users connected through a comment on
// one of their documents.
func TestQueryJoin(t *testing.T) {
	g := sampleGraph(t)
	bs, err := g.QueryStrings(
		"?c S3:commentsOn ?d",
		"?c S3:postedBy ?author",
		"?d S3:postedBy ?orig",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("bindings = %d, want 1", len(bs))
	}
	author, _ := bs[0].Resolve(g.Dict(), "author")
	orig, _ := bs[0].Resolve(g.Dict(), "orig")
	if author != "u2" || orig != "u1" {
		t.Fatalf("join gave author=%s orig=%s", author, orig)
	}
}

func TestQuerySharedVariableWithinPattern(t *testing.T) {
	g := NewWithDict()
	g.Add("a", "knows", "a") // self-loop
	g.Add("a", "knows", "b")
	bs, err := g.QueryStrings("?x knows ?x")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("bindings = %d, want only the self-loop", len(bs))
	}
}

func TestQueryMatchesWeightedStatements(t *testing.T) {
	g := sampleGraph(t)
	bs, err := g.QueryStrings("?a S3:social ?b")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("weighted statement not matched: %v", bs)
	}
}

func TestQueryVariablePredicate(t *testing.T) {
	g := sampleGraph(t)
	bs, err := g.QueryStrings("d2 ?p d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("bindings = %d, want 1", len(bs))
	}
	if p, _ := bs[0].Resolve(g.Dict(), "p"); p != "S3:commentsOn" {
		t.Fatalf("p = %s", p)
	}
}

func TestQueryUnknownConstantYieldsNoResults(t *testing.T) {
	g := sampleGraph(t)
	bs, err := g.QueryStrings("?u rdf:type NeverSeen")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 0 {
		t.Fatalf("bindings = %v, want none", bs)
	}
}

func TestQueryEmptyAndParseErrors(t *testing.T) {
	g := sampleGraph(t)
	if _, err := g.Query(nil); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := ParsePattern("only two"); err == nil {
		t.Fatal("expected error for 2-term pattern")
	}
	if _, err := ParsePattern(`a b "unterminated`); err == nil {
		t.Fatal("expected error for unterminated quote")
	}
	if p, err := ParsePattern(`?s says "hello world"`); err != nil || !p.S.IsVar() || p.O.Value != "hello world" {
		t.Fatalf("quoted pattern parse: %+v, %v", p, err)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := sampleGraph(t)
	var buf bytes.Buffer
	if err := g.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := NewWithDict()
	n, err := g2.ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.Len() {
		t.Fatalf("read %d statements, want %d", n, g.Len())
	}
	for _, tr := range g.Triples() {
		s := g.Dict().String(tr.S)
		p := g.Dict().String(tr.P)
		o := g.Dict().String(tr.O)
		if !g2.HasStr(s, p, o) {
			t.Fatalf("statement (%s %s %s) lost in round-trip", s, p, o)
		}
	}
	// Weight preserved.
	s, _ := g2.Dict().Lookup("u1")
	p, _ := g2.Dict().Lookup("S3:social")
	o, _ := g2.Dict().Lookup("u2")
	if w, ok := g2.Weight(s, p, o); !ok || w != 0.5 {
		t.Fatalf("weight = %v,%v, want 0.5", w, ok)
	}
}

func TestNTriplesLiteralsAndComments(t *testing.T) {
	src := `
# a comment
<ent1> <foaf:name> "John Smith" .
<a> <b> <c> 0.25 .

<x> <y> z .
`
	g := NewWithDict()
	n, err := g.ReadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("read %d statements, want 3", n)
	}
	if !g.HasStr("ent1", "foaf:name", "John Smith") {
		t.Fatal("quoted literal lost")
	}
	s, _ := g.Dict().Lookup("a")
	p, _ := g.Dict().Lookup("b")
	o, _ := g.Dict().Lookup("c")
	if w, _ := g.Weight(s, p, o); w != 0.25 {
		t.Fatalf("weight = %v, want 0.25", w)
	}
}

func TestNTriplesErrors(t *testing.T) {
	cases := []string{
		"<a> <b .",
		`<a> <b> "unterminated .`,
		"<a> <b> <c> 1.5 .",
		"<a> <b> <c> nope .",
		"<a> <b> <c> NaN .",
		"<a> .",
	}
	for _, src := range cases {
		g := NewWithDict()
		if _, err := g.ReadNTriples(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// Round-tripping a generated ontology preserves Ext results.
func TestNTriplesPreservesExtensions(t *testing.T) {
	g := NewWithDict()
	g.Add("ms", SubClassOfURI, "degree")
	g.Add("bs", SubClassOfURI, "degree")
	g.Saturate()

	var buf bytes.Buffer
	if err := g.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := NewWithDict()
	if _, err := g2.ReadNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	g2.Saturate()
	if len(g2.ExtStr("degree")) != len(g.ExtStr("degree")) {
		t.Fatal("extension changed across round-trip")
	}
}
