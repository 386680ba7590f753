// Frozen graphs: a read-only view over an already-saturated triple list
// that answers the index lookups (Objects, Subjects, PropertyPairs, Has,
// Weight) by binary search over two precomputed sorted permutations
// instead of hash maps. Nothing is inserted and no per-triple allocation
// happens on construction, which is what lets a memory-mapped snapshot
// expose its ontology without materialising it: the triple array is the
// mapped section itself and the permutations are two more mapped arrays.
package rdf

import (
	"fmt"
	"sort"

	"s3/internal/dict"
)

// FromTriplesFrozen builds a read-only saturated graph over triples, with
// spo and pos the permutations of triple indices sorted by (S, P, O) and
// (P, O, S) respectively (as produced by TriplePerms). All three slices
// are retained without copying.
//
// Triple ids are validated against the dictionary, and each permutation
// must list the triples in strictly ascending order: that makes it a
// permutation, keeps every lookup in range, and is the order the binary
// searches need (a mis-sorted index would return wrong extension sets).
//
// A frozen graph rejects every mutation (Add, AddT, Saturate); it is safe
// for concurrent readers by construction.
func FromTriplesFrozen(d *dict.Dict, triples []Triple, spo, pos []int32) (*Graph, error) {
	nd := ID(d.Len())
	for i, t := range triples {
		if t.S >= nd || t.P >= nd || t.O >= nd {
			return nil, fmt.Errorf("rdf: triple %d references ids outside dictionary of %d", i, nd)
		}
	}
	check := func(perm []int32, name string, less func(a, b Triple) bool) error {
		if len(perm) != len(triples) {
			return fmt.Errorf("rdf: %s permutation has %d entries for %d triples", name, len(perm), len(triples))
		}
		for i, p := range perm {
			if p < 0 || int(p) >= len(triples) {
				return fmt.Errorf("rdf: %s permutation entry %d out of range", name, p)
			}
			if i > 0 && !less(triples[perm[i-1]], triples[p]) {
				return fmt.Errorf("rdf: %s permutation is not strictly ascending at %d", name, i)
			}
		}
		return nil
	}
	if err := check(spo, "spo", lessSPO); err != nil {
		return nil, err
	}
	if err := check(pos, "pos", lessPOS); err != nil {
		return nil, err
	}
	g := &Graph{
		dict:      d,
		triples:   triples,
		spo:       spo,
		pos:       pos,
		frozen:    true,
		saturated: true,
	}
	// The well-known vocabulary is resolved without interning: a frozen
	// graph never grows the dictionary. An ontology that never mentions a
	// vocabulary term keeps the NoID sentinel, which matches no triple.
	lookup := func(uri string) ID {
		if id, ok := d.Lookup(uri); ok {
			return id
		}
		return dict.NoID
	}
	g.typeP = lookup(TypeURI)
	g.scP = lookup(SubClassOfURI)
	g.spP = lookup(SubPropertyOfURI)
	g.domP = lookup(DomainURI)
	g.rngP = lookup(RangeURI)
	return g, nil
}

// TriplePerms computes the (S,P,O)- and (P,O,S)-sorted permutations of a
// triple list — the indexes FromTriplesFrozen wants back. Triples are
// duplicate-free, so both orders are total and the result deterministic.
func TriplePerms(triples []Triple) (spo, pos []int32) {
	spo = make([]int32, len(triples))
	pos = make([]int32, len(triples))
	for i := range spo {
		spo[i] = int32(i)
		pos[i] = int32(i)
	}
	sort.Slice(spo, func(i, j int) bool { return lessSPO(triples[spo[i]], triples[spo[j]]) })
	sort.Slice(pos, func(i, j int) bool { return lessPOS(triples[pos[i]], triples[pos[j]]) })
	return spo, pos
}

func lessSPO(a, b Triple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
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

// frozenObjects answers Objects by binary search over the spo
// permutation; the objects of one (s, p) are a contiguous run.
func (g *Graph) frozenObjects(s, p ID) []ID {
	lo := sort.Search(len(g.spo), func(i int) bool {
		t := g.triples[g.spo[i]]
		return t.S > s || (t.S == s && t.P >= p)
	})
	var out []ID
	for i := lo; i < len(g.spo); i++ {
		t := g.triples[g.spo[i]]
		if t.S != s || t.P != p {
			break
		}
		out = append(out, t.O)
	}
	return out
}

// frozenSubjects answers Subjects by binary search over the pos
// permutation.
func (g *Graph) frozenSubjects(p, o ID) []ID {
	lo := sort.Search(len(g.pos), func(i int) bool {
		t := g.triples[g.pos[i]]
		return t.P > p || (t.P == p && t.O >= o)
	})
	var out []ID
	for i := lo; i < len(g.pos); i++ {
		t := g.triples[g.pos[i]]
		if t.P != p || t.O != o {
			break
		}
		out = append(out, t.S)
	}
	return out
}

// frozenPropertyPairs answers PropertyPairs (weight-1 statements of one
// property) from the pos permutation's per-property run.
func (g *Graph) frozenPropertyPairs(p ID) []Pair {
	lo := sort.Search(len(g.pos), func(i int) bool {
		return g.triples[g.pos[i]].P >= p
	})
	var out []Pair
	for i := lo; i < len(g.pos); i++ {
		t := g.triples[g.pos[i]]
		if t.P != p {
			break
		}
		if t.W == 1 {
			out = append(out, Pair{t.S, t.O})
		}
	}
	return out
}

// frozenWeight answers Weight/Has by exact binary search over spo.
func (g *Graph) frozenWeight(s, p, o ID) (float64, bool) {
	key := Triple{S: s, P: p, O: o}
	lo := sort.Search(len(g.spo), func(i int) bool {
		return !lessSPO(g.triples[g.spo[i]], key)
	})
	if lo < len(g.spo) {
		if t := g.triples[g.spo[lo]]; t.S == s && t.P == p && t.O == o {
			return t.W, true
		}
	}
	return 0, false
}
