package s3

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"s3/internal/graph"
)

// A spec written by one builder rebuilds into an equivalent instance:
// same statistics, same search answers.
func TestSpecRoundTripThroughFacade(t *testing.T) {
	b := NewBuilder(English)
	if err := b.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSocial("alice", "bob", 0.8); err != nil {
		t.Fatal(err)
	}
	b.AddTriple(b.Stem("m.s"), "rdfs:subClassOf", b.Stem("degree"))
	if err := b.AddDocumentText("post1", "post", "I finished my M.S. thesis"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPost("post1", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTag("t1", "post1", "bob", "milestone"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := b.EncodeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	original, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildFromSpec(&buf, English)
	if err != nil {
		t.Fatal(err)
	}

	if original.Stats() != rebuilt.Stats() {
		t.Fatalf("stats differ:\n%v\nvs\n%v", original.Stats(), rebuilt.Stats())
	}
	q := []string{"degree"}
	r1, err := original.Search("alice", q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rebuilt.Search("alice", q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("answers differ in size: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("answers differ at %d: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestBuildFromSpecErrors(t *testing.T) {
	if _, err := BuildFromSpec(strings.NewReader("not a gob stream"), English); err == nil {
		t.Fatal("expected decode error")
	}
}

// An encoded spec carries a relationship's sub-property declaration once,
// however many edges use the relationship.
func TestEncodeSpecDeclaresOnce(t *testing.T) {
	b := NewBuilder(English)
	for i := range 101 {
		if err := b.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := b.AddSocialAs(fmt.Sprintf("u%d", i), "u0", 0.5, "vdk:follow"); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := b.EncodeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	spec, err := graph.DecodeSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Social) != 100 {
		t.Fatalf("%d social edges, want 100", len(spec.Social))
	}
	declared := 0
	for _, tr := range spec.Ontology {
		if tr == [3]string{"vdk:follow", "rdfs:subPropertyOf", graph.PropSocial} {
			declared++
		}
	}
	if declared != 1 || len(spec.Ontology) != 1 {
		t.Fatalf("the spec's %d ontology triples declare vdk:follow %d times, want once", len(spec.Ontology), declared)
	}
}
