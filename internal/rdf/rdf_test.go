package rdf

import (
	"math"
	"math/rand"
	"testing"
)

func TestAddAndLookup(t *testing.T) {
	g := NewWithDict()
	if !g.Add("u1", "hasFriend", "u0") {
		t.Fatal("first Add returned false")
	}
	if g.Add("u1", "hasFriend", "u0") {
		t.Fatal("duplicate Add returned true")
	}
	if !g.HasStr("u1", "hasFriend", "u0") {
		t.Fatal("statement missing after Add")
	}
	if g.HasStr("u0", "hasFriend", "u1") {
		t.Fatal("reverse statement should not exist")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestWeightedAddKeepsMax(t *testing.T) {
	g := NewWithDict()
	g.AddWeighted("a", "sim", "b", 0.3)
	g.AddWeighted("a", "sim", "b", 0.7)
	g.AddWeighted("a", "sim", "b", 0.5)
	s, _ := g.Dict().Lookup("a")
	p, _ := g.Dict().Lookup("sim")
	o, _ := g.Dict().Lookup("b")
	w, ok := g.Weight(s, p, o)
	if !ok || w != 0.7 {
		t.Fatalf("Weight = %v,%v, want 0.7,true", w, ok)
	}
	// The triples slice must reflect the weight upgrade too.
	for _, tr := range g.Triples() {
		if tr.S == s && tr.P == p && tr.O == o && tr.W != 0.7 {
			t.Fatalf("triple slice weight = %v, want 0.7", tr.W)
		}
	}
}

// TestAddPanicsOnBadWeight: a weight outside [0,1] panics, NaN included
// (it fails every comparison, so a test for w < 0 || w > 1 lets it by).
func TestAddPanicsOnBadWeight(t *testing.T) {
	for _, w := range []float64{1.5, -0.5, math.NaN()} {
		func() {
			g := NewWithDict()
			s, p, o := g.Dict().Intern("a"), g.Dict().Intern("p"), g.Dict().Intern("b")
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic on weight %v", w)
				}
			}()
			g.AddT(s, p, o, w)
		}()
	}
}

// The paper's §2.1 example: from (u1 hasFriend u0) and
// (hasFriend range Person) entailment derives (u0 type Person).
func TestSaturationRangeRule(t *testing.T) {
	g := NewWithDict()
	g.Add("u1", "hasFriend", "u0")
	g.Add("hasFriend", RangeURI, "Person")
	g.Saturate()
	if !g.HasStr("u0", TypeURI, "Person") {
		t.Fatal("range rule did not derive u0 type Person")
	}
	if g.HasStr("u1", TypeURI, "Person") {
		t.Fatal("range rule wrongly typed the subject")
	}
}

func TestSaturationDomainRule(t *testing.T) {
	g := NewWithDict()
	g.Add("hasDegreeFrom", DomainURI, "Graduate")
	g.Add("hasDegreeFrom", RangeURI, "University")
	g.Add("u2", "hasDegreeFrom", "UAlberta")
	g.Saturate()
	if !g.HasStr("u2", TypeURI, "Graduate") {
		t.Fatal("domain rule did not derive u2 type Graduate")
	}
	if !g.HasStr("UAlberta", TypeURI, "University") {
		t.Fatal("range rule did not derive UAlberta type University")
	}
}

func TestSaturationSubClassTransitivityAndTyping(t *testing.T) {
	g := NewWithDict()
	g.Add("M.S.Degree", SubClassOfURI, "Degree")
	g.Add("Degree", SubClassOfURI, "Qualification")
	g.Add("myMS", TypeURI, "M.S.Degree")
	g.Saturate()
	if !g.HasStr("M.S.Degree", SubClassOfURI, "Qualification") {
		t.Fatal("subclass transitivity missing")
	}
	if !g.HasStr("myMS", TypeURI, "Degree") || !g.HasStr("myMS", TypeURI, "Qualification") {
		t.Fatal("type propagation through subclass chain missing")
	}
}

func TestSaturationSubPropertyRule(t *testing.T) {
	g := NewWithDict()
	g.Add("workingWith", SubPropertyOfURI, "acquaintedWith")
	g.Add("u1", "workingWith", "u2")
	g.Saturate()
	if !g.HasStr("u1", "acquaintedWith", "u2") {
		t.Fatal("subproperty rule did not derive the superproperty statement")
	}
}

// Saturation applies rules in any order; a schema triple arriving "after"
// the data it constrains must still fire.
func TestSaturationOrderIndependence(t *testing.T) {
	g := NewWithDict()
	g.Add("u1", "workingWith", "u2") // data first
	g.Add("workingWith", SubPropertyOfURI, "acquaintedWith")
	g.Add("acquaintedWith", RangeURI, "Person")
	g.Saturate()
	if !g.HasStr("u1", "acquaintedWith", "u2") {
		t.Fatal("late schema: subproperty statement missing")
	}
	if !g.HasStr("u2", TypeURI, "Person") {
		t.Fatal("late schema: range typing through derived statement missing")
	}
}

// Weighted triples (w < 1) must not participate in entailment (paper §2.1).
func TestSaturationIgnoresWeightedTriples(t *testing.T) {
	g := NewWithDict()
	g.AddWeighted("u1", "social", "u2", 0.5)
	g.Add("social", RangeURI, "Person")
	g.Saturate()
	if g.HasStr("u2", TypeURI, "Person") {
		t.Fatal("weighted triple wrongly participated in entailment")
	}
}

// Upgrading a weighted triple to weight 1 makes it visible to reasoning.
func TestWeightUpgradeTriggersEntailment(t *testing.T) {
	g := NewWithDict()
	g.AddWeighted("u1", "social", "u2", 0.5)
	g.Add("social", RangeURI, "Person")
	g.Saturate()
	g.AddWeighted("u1", "social", "u2", 1)
	if !g.HasStr("u2", TypeURI, "Person") {
		t.Fatal("weight upgrade did not trigger entailment")
	}
}

func TestSaturateIsIdempotent(t *testing.T) {
	g := NewWithDict()
	g.Add("a", SubClassOfURI, "b")
	g.Add("b", SubClassOfURI, "c")
	g.Add("x", TypeURI, "a")
	first := g.Saturate()
	if first == 0 {
		t.Fatal("expected inferences on first Saturate")
	}
	if again := g.Saturate(); again != 0 {
		t.Fatalf("second Saturate inferred %d triples, want 0", again)
	}
}

// Incremental insertion after saturation must yield the same closure as
// batch saturation of all triples.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		triples := randomSchemaTriples(rng, 40)

		batch := NewWithDict()
		for _, tr := range triples {
			batch.Add(tr[0], tr[1], tr[2])
		}
		batch.Saturate()

		incr := NewWithDict()
		half := len(triples) / 2
		for _, tr := range triples[:half] {
			incr.Add(tr[0], tr[1], tr[2])
		}
		incr.Saturate()
		for _, tr := range triples[half:] {
			incr.Add(tr[0], tr[1], tr[2]) // incremental path
		}

		if batch.Len() != incr.Len() {
			t.Fatalf("trial %d: batch closure has %d triples, incremental %d",
				trial, batch.Len(), incr.Len())
		}
		for _, tr := range batch.Triples() {
			s := batch.Dict().String(tr.S)
			p := batch.Dict().String(tr.P)
			o := batch.Dict().String(tr.O)
			if !incr.HasStr(s, p, o) {
				t.Fatalf("trial %d: incremental closure missing (%s %s %s)", trial, s, p, o)
			}
		}
	}
}

// randomSchemaTriples generates a random mix of schema and data triples
// over small vocabularies, exercising every entailment rule.
func randomSchemaTriples(rng *rand.Rand, n int) [][3]string {
	classes := []string{"c0", "c1", "c2", "c3", "c4"}
	props := []string{"p0", "p1", "p2", "p3"}
	inds := []string{"i0", "i1", "i2", "i3", "i4", "i5"}
	out := make([][3]string, 0, n)
	for len(out) < n {
		switch rng.Intn(5) {
		case 0:
			out = append(out, [3]string{classes[rng.Intn(len(classes))], SubClassOfURI, classes[rng.Intn(len(classes))]})
		case 1:
			out = append(out, [3]string{props[rng.Intn(len(props))], SubPropertyOfURI, props[rng.Intn(len(props))]})
		case 2:
			out = append(out, [3]string{props[rng.Intn(len(props))], DomainURI, classes[rng.Intn(len(classes))]})
		case 3:
			out = append(out, [3]string{props[rng.Intn(len(props))], RangeURI, classes[rng.Intn(len(classes))]})
		default:
			out = append(out, [3]string{inds[rng.Intn(len(inds))], props[rng.Intn(len(props))], inds[rng.Intn(len(inds))]})
		}
	}
	return out
}

// Saturation of subclass chains equals graph reachability.
func TestSubclassClosureEqualsReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		const n = 8
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		g := NewWithDict()
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		for e := 0; e < 12; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			adj[i][j] = true
			g.Add(names[i], SubClassOfURI, names[j])
		}
		g.Saturate()
		reach := transitiveClosure(adj)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				want := reach[i][j]
				got := g.HasStr(names[i], SubClassOfURI, names[j])
				if want != got {
					t.Fatalf("trial %d: closure(%s,%s) = %v, want %v", trial, names[i], names[j], got, want)
				}
			}
		}
	}
}

func transitiveClosure(adj [][]bool) [][]bool {
	n := len(adj)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = append([]bool(nil), adj[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	return reach
}

func TestExtDefinition(t *testing.T) {
	g := NewWithDict()
	g.Add("M.S.", SubClassOfURI, "degree")
	g.Add("B.S.", SubClassOfURI, "degree")
	g.Add("myDiploma", TypeURI, "degree")
	g.Add("awardedDegree", SubPropertyOfURI, "degree") // contrived but legal
	g.Add("unrelated", SubClassOfURI, "other")
	g.Saturate()

	k := g.Dict().Intern("degree")
	ext := g.Ext(k)
	if ext[0] != k {
		t.Fatal("Ext must list the keyword itself first")
	}
	want := map[string]bool{"degree": true, "M.S.": true, "B.S.": true, "myDiploma": true, "awardedDegree": true}
	if len(ext) != len(want) {
		t.Fatalf("Ext size = %d, want %d (%v)", len(ext), len(want), extStrings(g, ext))
	}
	for _, id := range ext {
		if !want[g.Dict().String(id)] {
			t.Fatalf("unexpected member %q in Ext", g.Dict().String(id))
		}
	}
}

// Ext must see through subclass chains thanks to saturation:
// M.S. ≺sc Masters ≺sc degree ⇒ M.S. ∈ Ext(degree).
func TestExtThroughChains(t *testing.T) {
	g := NewWithDict()
	g.Add("M.S.", SubClassOfURI, "Masters")
	g.Add("Masters", SubClassOfURI, "degree")
	g.Saturate()
	ext := extStrings(g, g.ExtStr("degree"))
	found := false
	for _, s := range ext {
		if s == "M.S." {
			found = true
		}
	}
	if !found {
		t.Fatalf("Ext(degree) = %v, want it to contain M.S.", ext)
	}
}

func TestExtOfUnknownKeywordIsSelf(t *testing.T) {
	g := NewWithDict()
	g.Saturate()
	ext := g.ExtStr("neverseen")
	if len(ext) != 1 || g.Dict().String(ext[0]) != "neverseen" {
		t.Fatalf("Ext of unknown keyword = %v, want just itself", extStrings(g, ext))
	}
}

func extStrings(g *Graph, ids []ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Dict().String(id)
	}
	return out
}

func BenchmarkSaturateChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewWithDict()
		for j := 0; j < 200; j++ {
			g.Add(className(j), SubClassOfURI, className(j+1))
		}
		b.StartTimer()
		g.Saturate()
	}
}

func className(i int) string { return "class" + string(rune('0'+i%10)) + "-" + string(rune('a'+i%26)) }
