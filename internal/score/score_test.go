package score

import (
	"math"
	"math/rand"
	"testing"

	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/text"
)

func buildRandom(t *testing.T, seed int64) (*graph.Instance, *index.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := datagen.RandomSpec(rng, datagen.DefaultRandomOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	return in, index.Build(in)
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{Gamma: 1, Eta: 0.5}, {Gamma: 0.5, Eta: 0.5}, {Gamma: 2, Eta: 0}, {Gamma: 2, Eta: 1}} {
		if err := p.Validate(); err == nil {
			t.Fatalf("Params %+v must be invalid", p)
		}
	}
}

func TestCGammaAndTailBound(t *testing.T) {
	p := Params{Gamma: 2, Eta: 0.5}
	if got := p.CGamma(); got != 0.5 {
		t.Fatalf("CGamma = %v, want 0.5", got)
	}
	// B>n = γ^-(n+1): with γ=2, B>0 = 0.5, B>1 = 0.25.
	if got := p.TailBound(0); got != 0.5 {
		t.Fatalf("TailBound(0) = %v, want 0.5", got)
	}
	if got := p.TailBound(1); got != 0.25 {
		t.Fatalf("TailBound(1) = %v, want 0.25", got)
	}
	// Cγ · Σ_{m>n} γ^-m must equal B>n exactly.
	for n := 0; n < 10; n++ {
		var tail float64
		for m := n + 1; m < 200; m++ {
			tail += math.Pow(p.Gamma, -float64(m))
		}
		if diff := math.Abs(p.CGamma()*tail - p.TailBound(n)); diff > 1e-12 {
			t.Fatalf("tail identity broken at n=%d: diff %v", n, diff)
		}
	}
}

// Example 3.1 of the paper: prox≤1(u0, URI0) is the normalised weight
// 1/(1+0.3) damped by γ (our implementation also applies the Cγ
// normalisation constant uniformly, which the paper's example elides).
func TestIteratorExample31(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	mustOK(t, b.AddUser("u0"))
	mustOK(t, b.AddUser("u3"))
	mustOK(t, b.AddDocument(&doc.Node{URI: "URI0", Name: "doc"}))
	mustOK(t, b.AddPost("URI0", "u0"))
	mustOK(t, b.AddSocial("u0", "u3", 0.3, ""))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Gamma: 1.5, Eta: 0.5}
	u0, _ := in.NIDOf("u0")
	uri0, _ := in.NIDOf("URI0")
	it := NewIterator(in, p, u0)
	it.Step()
	want := p.CGamma() * (1 / 1.3) / p.Gamma
	if got := it.AllProx()[uri0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("prox≤1(u0, URI0) = %v, want %v", got, want)
	}
}

// The iterator must agree with a dense matrix-power computation of
// prox≤n = Cγ Σ_{j≤n} (Mᵀ)ʲ e_u / γʲ on random instances.
func TestIteratorMatchesDenseOracle(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in, _ := buildRandom(t, seed)
		p := Params{Gamma: 1.5, Eta: 0.5}
		users := in.Users()
		seeker := users[int(seed)%len(users)]

		it := NewIterator(in, p, seeker)
		dense := in.Matrix().Dense()
		nn := in.NumNodes()

		// x = e_seeker; acc = Cγ·x.
		x := make([]float64, nn)
		x[seeker] = 1
		acc := make([]float64, nn)
		acc[seeker] = p.CGamma()

		for step := 0; step < 6; step++ {
			it.Step()
			// x ← xᵀM / γ.
			nx := make([]float64, nn)
			for r := 0; r < nn; r++ {
				if x[r] == 0 {
					continue
				}
				for c := 0; c < nn; c++ {
					nx[c] += x[r] * dense[r][c]
				}
			}
			for c := range nx {
				nx[c] /= p.Gamma
				acc[c] += p.CGamma() * nx[c]
			}
			x = nx
			for v := 0; v < nn; v++ {
				if math.Abs(it.AllProx()[v]-acc[v]) > 1e-9 {
					t.Fatalf("seed %d step %d: prox mismatch at node %s: %v vs %v",
						seed, step, in.URIOf(graph.NID(v)), it.AllProx()[v], acc[v])
				}
			}
		}
	}
}

// Feasibility property 2 (long-path attenuation): prox − prox≤n ≤ B>n,
// and prox≤n is monotone non-decreasing in n with values in [0, 1].
func TestAttenuationAndBounds(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		in, _ := buildRandom(t, seed)
		p := Params{Gamma: 2, Eta: 0.5}
		seeker := in.Users()[0]
		exact := ExactProximity(in, p, seeker, 1e-13)

		it := NewIterator(in, p, seeker)
		prev := make([]float64, in.NumNodes())
		copy(prev, it.AllProx())
		for n := 0; n < 25 && !it.Done(); n++ {
			it.Step()
			tail := it.TailBound()
			for v := 0; v < in.NumNodes(); v++ {
				cur := it.AllProx()[v]
				if cur < prev[v]-1e-15 {
					t.Fatalf("seed %d: prox≤n decreased at %s", seed, in.URIOf(graph.NID(v)))
				}
				if cur < -1e-15 || cur > 1+1e-9 {
					t.Fatalf("seed %d: prox out of [0,1]: %v", seed, cur)
				}
				if exact[v]-cur > tail+1e-9 {
					t.Fatalf("seed %d: attenuation violated at %s: exact %v, bounded %v, tail %v",
						seed, in.URIOf(graph.NID(v)), exact[v], cur, tail)
				}
			}
			copy(prev, it.AllProx())
		}
	}
}

// The candidate bounds must bracket the exact score at every exploration
// depth — this is the invariant the S3k algorithm's correctness rests on.
func TestBoundsBracketExactScore(t *testing.T) {
	for seed := int64(40); seed < 52; seed++ {
		in, ix := buildRandom(t, seed)
		p := Params{Gamma: 1.5, Eta: 0.6}
		seeker := in.Users()[0]
		groups := testGroups(in)
		sc, err := NewScorer(in, ix, p, groups)
		if err != nil {
			t.Fatal(err)
		}
		exactProx := ExactProximity(in, p, seeker, 1e-13)

		it := NewIterator(in, p, seeker)
		for n := 0; n < 12; n++ {
			it.Step()
			tail := it.TailBound()
			for _, d := range candidateNodes(in) {
				lo, hi := sc.Bounds(d, it.AllProx(), tail)
				exact := sc.Exact(d, exactProx)
				if lo > exact+1e-9 {
					t.Fatalf("seed %d n=%d: lower bound %v exceeds exact %v for %s",
						seed, n, lo, exact, in.URIOf(d))
				}
				if hi < exact-1e-9 {
					t.Fatalf("seed %d n=%d: upper bound %v below exact %v for %s",
						seed, n, hi, exact, in.URIOf(d))
				}
				if lo > hi+1e-12 {
					t.Fatalf("seed %d: lower %v > upper %v", seed, lo, hi)
				}
			}
			if it.Done() {
				break
			}
		}
	}
}

// Feasibility property 3 (soundness): the score is monotone in the
// proximity vector.
func TestScoreMonotoneInProximity(t *testing.T) {
	in, ix := buildRandom(t, 60)
	p := DefaultParams()
	sc, err := NewScorer(in, ix, p, testGroups(in))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	nn := in.NumNodes()
	for trial := 0; trial < 50; trial++ {
		g1 := make([]float64, nn)
		g2 := make([]float64, nn)
		for i := range g1 {
			g1[i] = rng.Float64()
			g2[i] = g1[i] + rng.Float64()*(1-g1[i])
		}
		for _, d := range candidateNodes(in) {
			s1 := sc.Exact(d, g1)
			s2 := sc.Exact(d, g2)
			if s1 > s2+1e-12 {
				t.Fatalf("score not monotone: %v > %v for %s", s1, s2, in.URIOf(d))
			}
		}
	}
}

// Feasibility property 4 (convergence): with every source proximity below
// B, score(d) ≤ Bscore(masses, B), and Bscore(masses, B) → 0 as B → 0,
// masses summed as the engine's stop test sums them.
func TestThresholdBoundsScore(t *testing.T) {
	for seed := int64(70); seed < 80; seed++ {
		in, ix := buildRandom(t, seed)
		p := DefaultParams()
		groups := testGroups(in)
		sc, err := NewScorer(in, ix, p, groups)
		if err != nil {
			t.Fatal(err)
		}
		masses := make([]int, len(groups))
		for gi, group := range groups {
			for _, k := range group {
				masses[gi] += ix.Posting(k).MaxCompEvents()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for _, B := range []float64{0.5, 0.1, 0.01} {
			prox := make([]float64, in.NumNodes())
			for i := range prox {
				prox[i] = rng.Float64() * B
			}
			thr := Bscore(masses, B)
			for _, d := range candidateNodes(in) {
				if s := sc.Exact(d, prox); s > thr+1e-12 {
					t.Fatalf("seed %d: score %v exceeds threshold %v (B=%v)", seed, s, thr, B)
				}
			}
		}
		if thr := Bscore(masses, 0); thr != 0 {
			t.Fatalf("Bscore(masses, 0) = %v, want 0", thr)
		}
	}
}

func TestNewScorerRejectsEmptyQuery(t *testing.T) {
	in, ix := buildRandom(t, 90)
	if _, err := NewScorer(in, ix, DefaultParams(), nil); err == nil {
		t.Fatal("expected error on empty query")
	}
	if _, err := NewScorer(in, ix, Params{Gamma: 1, Eta: 0.5}, testGroups(in)); err == nil {
		t.Fatal("expected error on invalid params")
	}
}

// GroupEvents deduplicates tuples contributed by several extension
// keywords of the same group.
func TestGroupEventsDeduplicate(t *testing.T) {
	in, ix := buildRandom(t, 95)
	sc, err := NewScorer(in, ix, DefaultParams(), testGroups(in))
	if err != nil {
		t.Fatal(err)
	}
	for gi := range sc.Postings() {
		for comp := int32(0); comp < int32(in.NumComponents()); comp++ {
			evs := sc.GroupEvents(comp, gi)
			seen := make(map[index.Event]struct{}, len(evs))
			for _, ev := range evs {
				if _, dup := seen[ev]; dup {
					t.Fatalf("duplicate event in group %d comp %d", gi, comp)
				}
				seen[ev] = struct{}{}
			}
		}
	}
}

// testGroups builds a two-keyword query with semantic extensions from the
// instance ontology.
func testGroups(in *graph.Instance) [][]dict.ID {
	// A keyword the instance lacks is interned and extends to itself.
	g1 := in.Ontology().Ext(in.Dict().Intern("kw0"))
	g2 := in.Ontology().Ext(in.Dict().Intern("kw1"))
	return [][]dict.ID{g1, g2}
}

// candidateNodes returns all document nodes.
func candidateNodes(in *graph.Instance) []graph.NID {
	var out []graph.NID
	for _, root := range in.DocRoots() {
		out = in.SubtreeOf(root, out)
	}
	return out
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupEventsSingleKeyword pins the no-extension fast path: a
// one-keyword group must return exactly the component's event list (the
// index slice itself — nothing to deduplicate, no map, no copy).
func TestGroupEventsSingleKeyword(t *testing.T) {
	in, ix := buildRandom(t, 11)
	kw, ok := in.Dict().Lookup("kw0")
	if !ok {
		t.Fatal("keyword kw0 not interned")
	}
	s, err := NewScorer(in, ix, Params{Gamma: 1.5, Eta: 0.8}, [][]dict.ID{{kw}})
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Posting(kw)
	if len(p.Comps()) == 0 {
		t.Fatal("keyword kw0 matches no components")
	}
	for _, comp := range p.Comps() {
		want := p.InComp(comp)
		got := s.GroupEvents(comp, 0)
		if len(got) != len(want) {
			t.Fatalf("component %d: %d events, want %d", comp, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("component %d event %d diverges", comp, i)
			}
		}
		// The cache must serve repeats.
		if again := s.GroupEvents(comp, 0); len(again) != len(want) {
			t.Fatalf("cached repeat diverges for component %d", comp)
		}
	}
}
