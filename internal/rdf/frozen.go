// The sorted form: a read-only saturated ontology over a triple list and
// its precomputed (P,O,S)-sorted permutation, answering keyword extensions
// by binary search instead of hash maps. Nothing is inserted and no
// per-triple allocation happens on construction, which is what lets a
// memory-mapped snapshot expose its ontology without materialising it:
// the triple array is the mapped section itself and the permutation is
// one more mapped array. A built instance holds the same form.
package rdf

import (
	"fmt"
	"sort"

	"s3/internal/dict"
)

// Ontology is a saturated triple list in sorted form: what an S3 instance
// reads of its RDF layer. It cannot be mutated, so it is safe for
// concurrent readers by construction.
type Ontology struct {
	triples []Triple
	pos     []int32

	typeP, scP, spP ID
}

// FromTriplesFrozen builds the sorted form of a saturated triple list,
// with pos the permutation of triple indices sorted by (P, O, S) (as
// TriplePOS produces it). Both slices are retained without copying.
//
// Triple ids are validated against the dictionary and weights against
// [0, 1], and pos must list the triples in strictly ascending order: that
// makes it a permutation, keeps every lookup in range, is the order the
// binary searches need (a mis-sorted index would return wrong extension
// sets), and makes the triples duplicate-free.
func FromTriplesFrozen(d *dict.Dict, triples []Triple, pos []int32) (*Ontology, error) {
	nd := ID(d.Len())
	for i, t := range triples {
		if t.S >= nd || t.P >= nd || t.O >= nd {
			return nil, fmt.Errorf("rdf: triple %d references ids outside dictionary of %d", i, nd)
		}
		if !(t.W >= 0 && t.W <= 1) {
			return nil, fmt.Errorf("rdf: triple %d has weight %v outside [0,1]", i, t.W)
		}
	}
	if len(pos) != len(triples) {
		return nil, fmt.Errorf("rdf: pos permutation has %d entries for %d triples", len(pos), len(triples))
	}
	for i, p := range pos {
		if p < 0 || int(p) >= len(triples) {
			return nil, fmt.Errorf("rdf: pos permutation entry %d out of range", p)
		}
		if i > 0 && !lessPOS(triples[pos[i-1]], triples[p]) {
			return nil, fmt.Errorf("rdf: pos permutation is not strictly ascending at %d", i)
		}
	}
	// The well-known vocabulary is resolved without interning: the sorted
	// form never grows the dictionary. An ontology that never mentions a
	// vocabulary term keeps the NoID sentinel, which matches no triple.
	lookup := func(uri string) ID {
		if id, ok := d.Lookup(uri); ok {
			return id
		}
		return dict.NoID
	}
	return &Ontology{
		triples: triples,
		pos:     pos,
		typeP:   lookup(TypeURI),
		scP:     lookup(SubClassOfURI),
		spP:     lookup(SubPropertyOfURI),
	}, nil
}

// Len returns the number of statements.
func (o *Ontology) Len() int { return len(o.triples) }

// Triples returns the statements. The slice is shared and must not be
// modified.
func (o *Ontology) Triples() []Triple { return o.triples }

// Pos returns the (P,O,S)-sorted permutation, in the form
// FromTriplesFrozen takes it back. It is shared and must not be modified.
func (o *Ontology) Pos() []int32 { return o.pos }

// Ext returns the extension of keyword k per Definition 2.1, as
// Graph.Ext does.
func (o *Ontology) Ext(k ID) []ID {
	return extension(k, o.typeP, o.scP, o.spP, o.subjects)
}

// subjects returns every s with (s, p, obj) by binary search over the pos
// permutation, where they form one contiguous run.
func (o *Ontology) subjects(p, obj ID) []ID {
	lo := sort.Search(len(o.pos), func(i int) bool {
		t := o.triples[o.pos[i]]
		return t.P > p || (t.P == p && t.O >= obj)
	})
	var out []ID
	for i := lo; i < len(o.pos); i++ {
		t := o.triples[o.pos[i]]
		if t.P != p || t.O != obj {
			break
		}
		out = append(out, t.S)
	}
	return out
}

// TriplePOS computes the (P,O,S)-sorted permutation of a triple list —
// the index FromTriplesFrozen wants back. Triples are duplicate-free, so
// the order is total and the result deterministic.
func TriplePOS(triples []Triple) []int32 {
	pos := make([]int32, len(triples))
	for i := range pos {
		pos[i] = int32(i)
	}
	sort.Slice(pos, func(i, j int) bool { return lessPOS(triples[pos[i]], triples[pos[j]]) })
	return pos
}

func lessPOS(a, b Triple) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.O != b.O {
		return a.O < b.O
	}
	return a.S < b.S
}
