// Package rdf implements the semantic substrate of the S3 model (paper
// §2.1): a weighted RDF graph with RDFS schema constraints, saturation
// (RDF entailment restricted to certain triples), and the keyword-extension
// operator Ext(k) of Definition 2.1.
//
// A triple (s, p, o, w) carries a weight w ∈ [0, 1]; triples with w = 1 are
// facts that certainly hold and participate in entailment, while triples
// with w < 1 carry quantitative information (e.g. social-link strength) and
// are excluded from reasoning, exactly as the paper prescribes.
package rdf

import (
	"fmt"
	"sort"

	"s3/internal/dict"
)

// ID aliases dict.ID: every subject, property and object is an interned
// string.
type ID = dict.ID

// Well-known property URIs. The paper writes them ≺sc, ≺sp, ←↩d, ↪→r.
const (
	TypeURI          = "rdf:type"
	SubClassOfURI    = "rdfs:subClassOf"
	SubPropertyOfURI = "rdfs:subPropertyOf"
	DomainURI        = "rdfs:domain"
	RangeURI         = "rdfs:range"
)

// Triple is one weighted RDF statement.
type Triple struct {
	S, P, O ID
	W       float64
}

// Pair is a (subject, object) pair of some property's statements.
type Pair struct{ S, O ID }
type spKey struct{ a, b ID }
type key3 struct{ s, p, o ID }

// Graph is a weighted RDF graph with SP and PO indexes. The zero value is
// not usable; call New.
//
// A Graph is safe for concurrent readers once mutation stops.
type Graph struct {
	dict    *dict.Dict
	triples []Triple
	weights map[key3]float64

	sp     map[spKey][]ID // (s,p) → objects
	po     map[spKey][]ID // (p,o) → subjects
	byProp map[ID][]Pair  // p → (s,o) pairs, weight-1 triples only

	typeP, scP, spP, domP, rngP ID

	saturated bool
}

// New returns an empty graph sharing the given dictionary.
func New(d *dict.Dict) *Graph {
	g := &Graph{
		dict:    d,
		weights: make(map[key3]float64),
		sp:      make(map[spKey][]ID),
		po:      make(map[spKey][]ID),
		byProp:  make(map[ID][]Pair),
	}
	g.typeP = d.Intern(TypeURI)
	g.scP = d.Intern(SubClassOfURI)
	g.spP = d.Intern(SubPropertyOfURI)
	g.domP = d.Intern(DomainURI)
	g.rngP = d.Intern(RangeURI)
	return g
}

// NewWithDict returns an empty graph with a fresh private dictionary.
func NewWithDict() *Graph { return New(dict.New()) }

// Dict returns the dictionary shared by the graph.
func (g *Graph) Dict() *dict.Dict { return g.dict }

// Len returns the number of distinct (s,p,o) statements.
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns the underlying statements in insertion order. The slice
// is shared with the graph and must not be modified.
func (g *Graph) Triples() []Triple { return g.triples }

// Add interns the three strings and adds the triple with weight 1.
func (g *Graph) Add(s, p, o string) bool {
	return g.AddWeighted(s, p, o, 1)
}

// AddWeighted interns the three strings and adds the weighted triple.
func (g *Graph) AddWeighted(s, p, o string, w float64) bool {
	return g.AddT(g.dict.Intern(s), g.dict.Intern(p), g.dict.Intern(o), w)
}

// AddT adds one weighted triple and reports whether it was new. Re-adding
// an existing statement keeps the maximum weight seen. If the graph was
// already saturated and the new triple has weight 1, its consequences are
// derived immediately (incremental saturation, cf. the paper's citation of
// incremental RDF maintenance [10]).
func (g *Graph) AddT(s, p, o ID, w float64) bool {
	if !(w >= 0 && w <= 1) {
		panic(fmt.Sprintf("rdf: weight %v out of [0,1]", w))
	}
	isNew := g.insert(s, p, o, w)
	if isNew && w == 1 && g.saturated {
		g.saturateFrom([]Triple{{S: s, P: p, O: o, W: 1}})
	}
	return isNew
}

// insert performs the raw indexed insertion without entailment.
func (g *Graph) insert(s, p, o ID, w float64) bool {
	k := key3{s, p, o}
	if old, ok := g.weights[k]; ok {
		if w > old {
			g.weights[k] = w
			if old < 1 && w == 1 {
				// The statement was not available for reasoning before but
				// is now; index it for entailment.
				g.byProp[p] = append(g.byProp[p], Pair{s, o})
				if g.saturated {
					g.saturateFrom([]Triple{{S: s, P: p, O: o, W: 1}})
				}
			}
			g.fixWeight(k, w)
		}
		return false
	}
	g.weights[k] = w
	g.triples = append(g.triples, Triple{S: s, P: p, O: o, W: w})
	g.sp[spKey{s, p}] = append(g.sp[spKey{s, p}], o)
	g.po[spKey{p, o}] = append(g.po[spKey{p, o}], s)
	if w == 1 {
		g.byProp[p] = append(g.byProp[p], Pair{s, o})
	}
	return true
}

func (g *Graph) fixWeight(k key3, w float64) {
	for i := range g.triples {
		t := &g.triples[i]
		if t.S == k.s && t.P == k.p && t.O == k.o {
			t.W = w
			return
		}
	}
}

// Has reports whether the statement (s,p,o) is present with any weight.
func (g *Graph) Has(s, p, o ID) bool {
	_, ok := g.weights[key3{s, p, o}]
	return ok
}

// HasStr is Has over strings; unknown strings yield false.
func (g *Graph) HasStr(s, p, o string) bool {
	si, ok1 := g.dict.Lookup(s)
	pi, ok2 := g.dict.Lookup(p)
	oi, ok3 := g.dict.Lookup(o)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return g.Has(si, pi, oi)
}

// Weight returns the weight of the statement if present.
func (g *Graph) Weight(s, p, o ID) (float64, bool) {
	w, ok := g.weights[key3{s, p, o}]
	return w, ok
}

// Objects returns all o with (s,p,o) in the graph.
func (g *Graph) Objects(s, p ID) []ID {
	return g.sp[spKey{s, p}]
}

// Subjects returns all s with (s,p,o) in the graph.
func (g *Graph) Subjects(p, o ID) []ID {
	return g.po[spKey{p, o}]
}

// PropertyPairs returns the (s,o) pairs of all weight-1 triples with
// property p.
func (g *Graph) PropertyPairs(p ID) []Pair {
	return g.byProp[p]
}

// Saturate computes the RDFS closure of the weight-1 statements, applying
// the immediate-entailment rules of Figure 2 to a fixpoint:
//
//	(a ≺sc b), (b ≺sc c)  ⊢ a ≺sc c
//	(a ≺sp b), (b ≺sp c)  ⊢ a ≺sp c
//	(s type a), (a ≺sc b) ⊢ s type b
//	(s p o),   (p ≺sp q)  ⊢ s q o
//	(p ←↩d c), (s p o)    ⊢ s type c
//	(p ↪→r c), (s p o)    ⊢ o type c
//
// Entailed triples always have weight 1. Saturate returns the number of
// triples inferred; it is idempotent.
func (g *Graph) Saturate() int {
	seed := make([]Triple, 0, len(g.triples))
	for _, t := range g.triples {
		if t.W == 1 {
			seed = append(seed, t)
		}
	}
	n := g.saturateFrom(seed)
	g.saturated = true
	return n
}

// saturateFrom runs the entailment worklist starting from the given delta.
func (g *Graph) saturateFrom(delta []Triple) int {
	inferred := 0
	push := func(s, p, o ID) {
		if g.insert(s, p, o, 1) {
			delta = append(delta, Triple{S: s, P: p, O: o, W: 1})
			inferred++
		}
	}
	for len(delta) > 0 {
		t := delta[len(delta)-1]
		delta = delta[:len(delta)-1]
		s, p, o := t.S, t.P, t.O
		switch p {
		case g.scP:
			// Transitivity in both join directions.
			for _, c := range g.Objects(o, g.scP) {
				push(s, g.scP, c)
			}
			for _, a := range g.Subjects(g.scP, s) {
				push(a, g.scP, o)
			}
			// Instances of the subclass are instances of the superclass.
			for _, x := range g.Subjects(g.typeP, s) {
				push(x, g.typeP, o)
			}
		case g.spP:
			for _, c := range g.Objects(o, g.spP) {
				push(s, g.spP, c)
			}
			for _, a := range g.Subjects(g.spP, s) {
				push(a, g.spP, o)
			}
			// Statements using the subproperty also hold for the
			// superproperty.
			for _, pair := range g.PropertyPairs(s) {
				push(pair.S, o, pair.O)
			}
		case g.typeP:
			for _, c := range g.Objects(o, g.scP) {
				push(s, g.typeP, c)
			}
		case g.domP:
			for _, pair := range g.PropertyPairs(s) {
				push(pair.S, g.typeP, o)
			}
		case g.rngP:
			for _, pair := range g.PropertyPairs(s) {
				push(pair.O, g.typeP, o)
			}
		}
		// Rules triggered by a plain statement (s p o) joining with the
		// schema of p.
		for _, q := range g.Objects(p, g.spP) {
			push(s, q, o)
		}
		for _, c := range g.Objects(p, g.domP) {
			push(s, g.typeP, c)
		}
		for _, c := range g.Objects(p, g.rngP) {
			push(o, g.typeP, c)
		}
	}
	return inferred
}

// Saturated reports whether Saturate has run (subsequent weight-1
// insertions are then maintained incrementally).
func (g *Graph) Saturated() bool { return g.saturated }

// Ext returns the extension of keyword k per Definition 2.1:
// k itself plus every b with (b type k), (b ≺sc k) or (b ≺sp k) in the
// (saturated) graph. The result is sorted and duplicate-free; k is always
// first.
func (g *Graph) Ext(k ID) []ID {
	return extension(k, g.typeP, g.scP, g.spP, g.Subjects)
}

// extension is the one body of Ext over both forms, given the property
// ids of the vocabulary and the form's (p, o) → subjects lookup.
func extension(k, typeP, scP, spP ID, subjects func(p, o ID) []ID) []ID {
	seen := map[ID]struct{}{k: {}}
	out := []ID{k}
	collect := func(ids []ID) {
		for _, b := range ids {
			if _, dup := seen[b]; dup {
				continue
			}
			seen[b] = struct{}{}
			out = append(out, b)
		}
	}
	collect(subjects(typeP, k))
	collect(subjects(scP, k))
	collect(subjects(spP, k))
	sort.Slice(out[1:], func(i, j int) bool { return out[i+1] < out[j+1] })
	return out
}

// ExtStr is Ext over a keyword string. A keyword never interned has only
// itself in its extension; it is interned on the fly so callers always get
// a usable ID back.
func (g *Graph) ExtStr(keyword string) []ID {
	return g.Ext(g.dict.Intern(keyword))
}
