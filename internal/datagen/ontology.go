package datagen

import (
	"fmt"
	"math/rand"

	"s3/internal/rdf"
)

// OntologyOptions size the synthetic DBpedia stand-in.
type OntologyOptions struct {
	// Classes is the number of classes, arranged in a forest of subclass
	// trees; class names double as content keywords so that queries can
	// hit them directly.
	Classes int
	// Branching is the subclass fan-out.
	Branching int
	// Entities is the number of typed entities; entity tokens are
	// injected into generated text, standing in for the paper's
	// replacement of words by DBpedia URIs via foaf:name.
	Entities int
}

// DefaultOntologyOptions matches the benchmark defaults: enough structure
// for the ≈50% workload growth under semantic extension the paper reports.
func DefaultOntologyOptions() OntologyOptions {
	return OntologyOptions{Classes: 120, Branching: 4, Entities: 400}
}

// Ontology is the generated semantic layer.
type Ontology struct {
	// Triples is the RDF schema + facts (all weight 1).
	Triples [][3]string
	// ClassNames lists the class keywords (usable as query keywords with
	// non-trivial extensions).
	ClassNames []string
	// EntityTokens lists the entity keywords, indexed by entity id.
	EntityTokens []string
}

// GenOntology builds a synthetic class forest with typed entities:
//
//	class_child ≺sc class_parent        (subclass forest)
//	ent_i  rdf:type  class_j            (typed entities)
//	ent_i  foaf:name "word"             (lexicalisation)
//
// Ext(class) then contains the class's sub-classes and entities, which is
// exactly what the paper's DBpedia enrichment provides.
func GenOntology(rng *rand.Rand, o OntologyOptions) *Ontology {
	ont := &Ontology{}
	for i := 0; i < o.Classes; i++ {
		name := "class-" + Word(i*7+3)
		ont.ClassNames = append(ont.ClassNames, name)
		if i > 0 {
			// Parent in a shallow forest: attaching to index i/branching
			// keeps trees balanced; a few roots stay parentless.
			parent := (i - 1) / o.Branching
			ont.Triples = append(ont.Triples, [3]string{name, rdf.SubClassOfURI, ont.ClassNames[parent]})
		}
	}
	for e := 0; e < o.Entities; e++ {
		tok := fmt.Sprintf("ent:%s-%d", Word(e*3+11), e)
		cls := rng.Intn(o.Classes)
		ont.EntityTokens = append(ont.EntityTokens, tok)
		ont.Triples = append(ont.Triples, [3]string{tok, rdf.TypeURI, ont.ClassNames[cls]})
		ont.Triples = append(ont.Triples, [3]string{tok, "foaf:name", Word(e*3 + 11)})
	}
	return ont
}
