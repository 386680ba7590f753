package rdf

import (
	"fmt"
	"math"
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

// TestFrozenMatchesIndexed checks the sorted form against the
// map-indexed original: the same statements, and the same extension for
// every id of the dictionary.
func TestFrozenMatchesIndexed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := buildSaturated(seed)
		fz, err := FromTriplesFrozen(g.Dict(), g.Triples(), TriplePOS(g.Triples()))
		if err != nil {
			t.Fatal(err)
		}
		if fz.Len() != g.Len() || len(fz.Triples()) != g.Len() {
			t.Fatalf("sorted form has %d triples, want %d", fz.Len(), g.Len())
		}
		for k := ID(0); k < ID(g.Dict().Len()); k++ {
			e1, e2 := g.Ext(k), fz.Ext(k)
			if fmt.Sprint(e1) != fmt.Sprint(e2) {
				t.Fatalf("seed %d: Ext(%d) diverges: %v vs %v", seed, k, e1, e2)
			}
		}
	}
}

// TestFrozenRejectsBadStructure covers the structural and order validation.
func TestFrozenRejectsBadStructure(t *testing.T) {
	g := buildSaturated(3)
	pos := TriplePOS(g.Triples())
	if _, err := FromTriplesFrozen(g.Dict(), g.Triples(), pos[:1]); err == nil {
		t.Error("short pos permutation accepted")
	}
	bad := append([]int32(nil), pos...)
	bad[0] = int32(len(g.Triples()))
	if _, err := FromTriplesFrozen(g.Dict(), g.Triples(), bad); err == nil {
		t.Error("out-of-range pos entry accepted")
	}
	swapped := append([]int32(nil), pos...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := FromTriplesFrozen(g.Dict(), g.Triples(), swapped); err == nil {
		t.Error("mis-sorted pos permutation accepted")
	}
	d := dict.New()
	if _, err := FromTriplesFrozen(d, g.Triples(), pos); err == nil {
		t.Error("triples outside the dictionary accepted")
	}
	for _, w := range []float64{2, -0.5, math.NaN()} {
		heavy := append([]Triple(nil), g.Triples()...)
		heavy[0].W = w
		if _, err := FromTriplesFrozen(g.Dict(), heavy, pos); err == nil {
			t.Errorf("triple weight %v accepted", w)
		}
	}
}
