package rdf

import (
	"fmt"
	"math/rand"
	"testing"

	"s3/internal/dict"
)

// buildSaturated assembles a weighted, saturated graph with schema
// chains, instances and sub-properties.
func buildSaturated(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewWithDict()
	for c := 0; c < 6; c++ {
		g.Add(fmt.Sprintf("c%d", c), SubClassOfURI, fmt.Sprintf("c%d", (c+1)%8))
	}
	for p := 0; p < 4; p++ {
		g.Add(fmt.Sprintf("p%d", p), SubPropertyOfURI, fmt.Sprintf("p%d", p+1))
	}
	g.Add("p0", DomainURI, "c0")
	g.Add("p1", RangeURI, "c2")
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("e%d", rng.Intn(12))
		o := fmt.Sprintf("e%d", rng.Intn(12))
		p := fmt.Sprintf("p%d", rng.Intn(4))
		if rng.Intn(3) == 0 {
			g.AddWeighted(s, p, o, 0.25+0.5*rng.Float64())
		} else {
			g.Add(s, p, o)
		}
		if rng.Intn(4) == 0 {
			g.Add(s, TypeURI, fmt.Sprintf("c%d", rng.Intn(6)))
		}
	}
	g.Saturate()
	return g
}

// TestFrozenMatchesIndexed checks every read answered by a frozen graph
// against the map-indexed original: Objects, Subjects, PropertyPairs,
// Has, Weight and Ext must agree on all touched ids.
func TestFrozenMatchesIndexed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := buildSaturated(seed)
		spo, pos := TriplePerms(g.Triples())
		fz, err := FromTriplesFrozen(g.Dict(), g.Triples(), spo, pos)
		if err != nil {
			t.Fatal(err)
		}
		if fz.Len() != g.Len() || !fz.Saturated() {
			t.Fatalf("frozen graph has %d triples (want %d), saturated=%v", fz.Len(), g.Len(), fz.Saturated())
		}
		n := dict.ID(g.Dict().Len())
		sorted := func(ids []ID) map[ID]bool {
			m := make(map[ID]bool, len(ids))
			for _, id := range ids {
				m[id] = true
			}
			return m
		}
		for s := ID(0); s < n; s++ {
			for p := ID(0); p < n; p++ {
				wo, go_ := sorted(g.Objects(s, p)), sorted(fz.Objects(s, p))
				if len(wo) != len(go_) {
					t.Fatalf("seed %d: Objects(%d,%d) diverge: %v vs %v", seed, s, p, wo, go_)
				}
				for id := range wo {
					if !go_[id] {
						t.Fatalf("seed %d: Objects(%d,%d) missing %d", seed, s, p, id)
					}
				}
				ws, gs := sorted(g.Subjects(s, p)), sorted(fz.Subjects(s, p))
				if len(ws) != len(gs) {
					t.Fatalf("seed %d: Subjects(%d,%d) diverge", seed, s, p)
				}
			}
			if len(g.PropertyPairs(s)) != len(fz.PropertyPairs(s)) {
				t.Fatalf("seed %d: PropertyPairs(%d) diverge", seed, s)
			}
		}
		for _, tr := range g.Triples() {
			if !fz.Has(tr.S, tr.P, tr.O) {
				t.Fatalf("seed %d: frozen graph lost (%d,%d,%d)", seed, tr.S, tr.P, tr.O)
			}
			w1, _ := g.Weight(tr.S, tr.P, tr.O)
			w2, ok := fz.Weight(tr.S, tr.P, tr.O)
			if !ok || w1 != w2 {
				t.Fatalf("seed %d: weight of (%d,%d,%d) = %v vs %v", seed, tr.S, tr.P, tr.O, w1, w2)
			}
			e1, e2 := g.Ext(tr.O), fz.Ext(tr.O)
			if len(e1) != len(e2) {
				t.Fatalf("seed %d: Ext(%d) diverges: %v vs %v", seed, tr.O, e1, e2)
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("seed %d: Ext(%d)[%d] = %d vs %d", seed, tr.O, i, e1[i], e2[i])
				}
			}
		}
	}
}

// TestFrozenQueriesMatchIndexed runs the BGP query evaluator over both
// representations.
func TestFrozenQueriesMatchIndexed(t *testing.T) {
	g := buildSaturated(5)
	spo, pos := TriplePerms(g.Triples())
	fz, err := FromTriplesFrozen(g.Dict(), g.Triples(), spo, pos)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]string{
		{"?s p0 ?o"},
		{"?s rdf:type c1"},
		{"?s ?p e3", "?s rdf:type ?c"},
	} {
		want, err1 := g.QueryStrings(q...)
		got, err2 := fz.QueryStrings(q...)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %v: %v / %v", q, err1, err2)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("query %v diverges:\n%v\nvs\n%v", q, want, got)
		}
	}
}

// TestFrozenIsReadOnly pins the mutation guard.
func TestFrozenIsReadOnly(t *testing.T) {
	g := buildSaturated(2)
	spo, pos := TriplePerms(g.Triples())
	fz, err := FromTriplesFrozen(g.Dict(), g.Triples(), spo, pos)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"AddT":     func() { fz.AddT(0, 1, 2, 1) },
		"Saturate": func() { fz.Saturate() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen graph did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFrozenRejectsBadStructure covers the structural and order validation.
func TestFrozenRejectsBadStructure(t *testing.T) {
	g := buildSaturated(3)
	spo, pos := TriplePerms(g.Triples())
	if _, err := FromTriplesFrozen(g.Dict(), g.Triples(), spo[:1], pos); err == nil {
		t.Error("short spo permutation accepted")
	}
	bad := append([]int32(nil), spo...)
	bad[0] = int32(len(g.Triples()))
	if _, err := FromTriplesFrozen(g.Dict(), g.Triples(), bad, pos); err == nil {
		t.Error("out-of-range spo entry accepted")
	}
	swapped := append([]int32(nil), pos...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := FromTriplesFrozen(g.Dict(), g.Triples(), spo, swapped); err == nil {
		t.Error("mis-sorted pos permutation accepted")
	}
	d := dict.New()
	if _, err := FromTriplesFrozen(d, g.Triples(), spo, pos); err == nil {
		t.Error("triples outside the dictionary accepted")
	}
}
