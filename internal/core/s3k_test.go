package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"s3/internal/datagen"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/text"
)

func buildRandomEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := datagen.RandomSpec(rng, datagen.DefaultRandomOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(in, index.Build(in))
}

// The central correctness property: S3k returns the same answer as the
// exhaustive oracle, across random instances, seekers, queries and k.
// Mismatches are tolerated only for exact score ties at the answer
// boundary (the paper notes answers need not be unique then).
func TestS3kMatchesExhaustive(t *testing.T) {
	params := score.Params{Gamma: 1.5, Eta: 0.6}
	queries := [][]string{{"kw0"}, {"kw1"}, {"kw0", "kw1"}, {"kw2", "kw3"}}
	for seed := int64(0); seed < 60; seed++ {
		e := buildRandomEngine(t, seed)
		users := e.Instance().Users()
		seeker := users[int(seed)%len(users)]
		query := queries[int(seed)%len(queries)]
		for _, k := range []int{1, 3, 5} {
			got, stats, err := e.Search(seeker, query, Options{K: k, Params: params})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want, err := e.Exhaustive(seeker, query, k, params)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			compareAnswers(t, e, seeker, query, params, seed, k, got, want, stats)
		}
	}
}

// compareAnswers checks that two answers are equivalent as *sets* — the
// paper's top-k answer is a set (Definition 3.2) and need not be unique
// under exact score ties (Theorem 4.2), so:
//
//   - the answers have the same size;
//   - the sorted exact-score sequences of the two answers agree within
//     float tolerance (ties may swap which document is returned, but never
//     the achieved scores);
//   - each S3k score interval brackets the exact score of its document.
func compareAnswers(t *testing.T, e *Engine, seeker graph.NID, query []string, params score.Params,
	seed int64, k int, got []Result, want []Result, stats Stats) {
	t.Helper()
	if stats.Reason == StopBudget {
		t.Fatalf("seed %d: unexpected any-time stop in exact mode", seed)
	}
	if len(got) == 0 && len(want) == 0 {
		return // e.g. a query keyword absent from the instance
	}
	exact := exactScorer(t, e, seeker, query, params)
	gotScores := make([]float64, len(got))
	for i, r := range got {
		s := exact(r.Doc)
		gotScores[i] = s
		if s < r.Lower-1e-6 || s > r.Upper+1e-6 {
			t.Fatalf("seed %d k=%d: exact score %v of %s outside interval [%v, %v]",
				seed, k, s, r.URI, r.Lower, r.Upper)
		}
	}
	wantScores := make([]float64, len(want))
	for i, r := range want {
		wantScores[i] = r.Lower
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(gotScores)))
	sort.Sort(sort.Reverse(sort.Float64Slice(wantScores)))
	n := min(len(gotScores), len(wantScores))
	for i := 0; i < n; i++ {
		if math.Abs(gotScores[i]-wantScores[i]) > 1e-6 {
			t.Fatalf("seed %d k=%d: score sequences diverge at %d: %v vs %v\ngot %v\nwant %v",
				seed, k, i, gotScores[i], wantScores[i], uris(got), uris(want))
		}
	}
	// The answers may differ in size only by documents of vanishing score:
	// the engine and the oracle place the "score is effectively zero"
	// cutoff at slightly different float magnitudes.
	for _, extra := range append(gotScores[n:], wantScores[n:]...) {
		if extra > 1e-9 {
			t.Fatalf("seed %d k=%d: answers differ by a non-vanishing document (score %v)\ngot %v\nwant %v",
				seed, k, extra, uris(got), uris(want))
		}
	}
}

// exactScorer returns a function computing the exact score of any document
// for the given query, independent of the engine's bounds machinery.
func exactScorer(t *testing.T, e *Engine, seeker graph.NID, query []string, params score.Params) func(graph.NID) float64 {
	t.Helper()
	groups, ok, err := e.KeywordGroups(query)
	if err != nil || !ok {
		t.Fatalf("KeywordGroups(%v): ok=%v err=%v", query, ok, err)
	}
	sc, err := score.NewScorer(e.Instance(), e.Index(), params, groups)
	if err != nil {
		t.Fatal(err)
	}
	prox := score.ExactProximity(e.Instance(), params, seeker, 1e-14)
	return func(d graph.NID) float64 { return sc.Exact(d, prox) }
}

func uris(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.URI
	}
	return out
}

// No two answers may ever be vertical neighbours (Definition 3.2).
func TestAnswersAreVerticalNeighborFree(t *testing.T) {
	params := score.DefaultParams()
	for seed := int64(100); seed < 130; seed++ {
		e := buildRandomEngine(t, seed)
		seeker := e.Instance().Users()[0]
		got, _, err := e.Search(seeker, []string{"kw0"}, Options{K: 5, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if e.Instance().VerticalNeighbors(got[i].Doc, got[j].Doc) {
					t.Fatalf("seed %d: results %s and %s are vertical neighbours",
						seed, got[i].URI, got[j].URI)
				}
			}
		}
	}
}

// The sibling-resurrection scenario that makes naive candidate deletion
// unsound: root R is dominated by its child S1, yet the other child S2 —
// also "dominated" by R — belongs to the top-2 answer because R itself is
// excluded by S1.
func TestSiblingResurrection(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddUser("seeker"))
	must(t, b.AddUser("friend"))
	must(t, b.AddUser("acq"))
	must(t, b.AddSocial("seeker", "friend", 1, ""))
	must(t, b.AddSocial("seeker", "acq", 0.4, ""))
	root := &doc.Node{URI: "d", Name: "doc", Children: []*doc.Node{
		{Name: "s1"}, {Name: "s2"},
	}}
	must(t, b.AddDocument(root))
	must(t, b.AddPost("d", "friend"))
	// With no containment connections, scores are purely tag-driven:
	// score(d.1) = prox(friend), score(d.2) = prox(acq), and the root
	// scores η·(prox(friend) + prox(acq)) — strictly between its two
	// children for η = 0.5. The top-2 answer must be {d.1, d.2}: the
	// root is excluded by d.1, which "resurrects" the weaker sibling.
	must(t, b.AddTag("a1", "d.1", "friend", "kw", ""))
	must(t, b.AddTag("a2", "d.2", "acq", "kw", ""))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(in, index.Build(in))
	seeker, _ := in.NIDOf("seeker")

	params := score.Params{Gamma: 1.5, Eta: 0.5}
	got, stats, err := e.Search(seeker, []string{"kw"}, Options{K: 2, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Exhaustive(seeker, []string{"kw"}, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	compareAnswers(t, e, seeker, []string{"kw"}, params, -1, 2, got, want, stats)
	if len(got) != 2 {
		t.Fatalf("expected 2 results, got %v (stats %+v)", uris(got), stats)
	}
	gotSet := map[string]bool{got[0].URI: true, got[1].URI: true}
	if !gotSet["d.1"] || !gotSet["d.2"] {
		t.Fatalf("answer = %v, want {d.1, d.2}", uris(got))
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	params := score.DefaultParams()
	for seed := int64(200); seed < 215; seed++ {
		e := buildRandomEngine(t, seed)
		seeker := e.Instance().Users()[0]
		seq, _, err := e.Search(seeker, []string{"kw0", "kw1"}, Options{K: 4, Params: params, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := e.Search(seeker, []string{"kw0", "kw1"}, Options{K: 4, Params: params, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("seed %d: sequential %v vs parallel %v", seed, uris(seq), uris(par))
		}
		for i := range seq {
			if seq[i].Doc != par[i].Doc {
				t.Fatalf("seed %d rank %d: %s vs %s", seed, i, seq[i].URI, par[i].URI)
			}
		}
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	e := buildRandomEngine(t, 300)
	seeker := e.Instance().Users()[0]
	opts := Options{K: 5, Params: score.DefaultParams()}
	a, _, err := e.Search(seeker, []string{"kw0"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.Search(seeker, []string{"kw0"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic result size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Any-time termination (Theorem 4.3): the engine returns a usable answer
// under an iteration or time budget and reports StopBudget.
func TestAnytimeTermination(t *testing.T) {
	e := buildRandomEngine(t, 400)
	seeker := e.Instance().Users()[0]

	got, stats, err := e.Search(seeker, []string{"kw0"}, Options{
		K: 3, Params: score.DefaultParams(), MaxIterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reason != StopBudget {
		t.Fatalf("reason = %s, want %s", stats.Reason, StopBudget)
	}
	if stats.Iterations > 1 {
		t.Fatalf("iterations = %d, want ≤ 1", stats.Iterations)
	}
	for _, r := range got {
		if r.Upper < r.Lower {
			t.Fatalf("inverted interval in any-time answer: %+v", r)
		}
	}

	_, stats, err = e.Search(seeker, []string{"kw0"}, Options{
		K: 3, Params: score.DefaultParams(), Budget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reason != StopBudget {
		t.Fatalf("reason = %s, want %s", stats.Reason, StopBudget)
	}
}

func TestUnknownKeywordReturnsNoMatch(t *testing.T) {
	e := buildRandomEngine(t, 500)
	seeker := e.Instance().Users()[0]
	got, stats, err := e.Search(seeker, []string{"neverappears"}, Options{K: 3, Params: score.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || stats.Reason != StopNoMatch {
		t.Fatalf("got %v, reason %s; want empty/nomatch", uris(got), stats.Reason)
	}
}

func TestSearchValidation(t *testing.T) {
	e := buildRandomEngine(t, 600)
	seeker := e.Instance().Users()[0]
	if _, _, err := e.Search(seeker, []string{"kw0"}, Options{K: 0, Params: score.DefaultParams()}); err == nil {
		t.Fatal("expected error for k = 0")
	}
	if _, _, err := e.Search(seeker, nil, Options{K: 1, Params: score.DefaultParams()}); err == nil {
		t.Fatal("expected error for empty query")
	}
	docNode := e.Instance().DocRoots()[0]
	if _, _, err := e.Search(docNode, []string{"kw0"}, Options{K: 1, Params: score.DefaultParams()}); err == nil {
		t.Fatal("expected error for non-user seeker")
	}
	if _, err := e.Exhaustive(docNode, []string{"kw0"}, 1, score.DefaultParams()); err == nil {
		t.Fatal("expected oracle error for non-user seeker")
	}
}

// A seeker with no outgoing edges reaches nothing; every document scores
// zero and the answer is empty.
func TestIsolatedSeeker(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddUser("loner"))
	must(t, b.AddUser("author"))
	must(t, b.AddDocument(&doc.Node{URI: "d", Keywords: []string{"kw"}}))
	must(t, b.AddPost("d", "author"))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(in)
	seeker, _ := in.NIDOf("loner")
	opts := Options{K: 3, Params: score.DefaultParams()}
	got, stats, err := NewEngine(in, ix).Search(seeker, []string{"kw"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("isolated seeker got results: %v (reason %s)", uris(got), stats.Reason)
	}
	// A fresh exploration's border is the seeker itself, so it is never
	// exhausted before its first round: that round empties the border,
	// reaches nothing, and its zero threshold is the stop — in every
	// deployment.
	if stats.Iterations != 1 || stats.Reason != StopThreshold || stats.NodesReached != 0 {
		t.Fatalf("isolated seeker stats = %+v, want 1 iteration, threshold, 0 nodes reached", stats)
	}
	for _, n := range []int{1, 2} {
		sgot, sstats, err := coordinated(in, shardIndexes(t, in, ix, n), seeker, []string{"kw"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(sgot) != 0 || sstats.Iterations != stats.Iterations || sstats.Reason != stats.Reason || sstats.NodesReached != stats.NodesReached {
			t.Fatalf("n=%d: sharded isolated seeker got %v, stats %+v; single stats %+v", n, uris(sgot), sstats, stats)
		}
	}
}

// Semantic extension reaches documents that share no literal keyword with
// the query — the paper's headline qualitative claim (R3).
func TestSemanticExtensionFindsResults(t *testing.T) {
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must(t, b.AddUser("u1"))
	must(t, b.AddUser("u0"))
	must(t, b.AddSocial("u1", "u0", 1, ""))
	b.AddOntologyTriple("ms", "rdfs:subClassOf", "degree")
	must(t, b.AddDocument(&doc.Node{URI: "d1", Keywords: []string{"ms"}}))
	must(t, b.AddPost("d1", "u0"))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(in, index.Build(in))
	seeker, _ := in.NIDOf("u1")

	// Query "degree": d1 only contains "ms", reachable through Ext.
	got, _, err := e.Search(seeker, []string{"degree"}, Options{K: 1, Params: score.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].URI != "d1" {
		t.Fatalf("semantic query returned %v, want [d1]", uris(got))
	}
	// Sanity: a keyword with no extension match returns nothing.
	got, _, err = e.Search(seeker, []string{"doctorate"}, Options{K: 1, Params: score.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unexpected results %v", uris(got))
	}
}

func TestCandidateCount(t *testing.T) {
	e := buildRandomEngine(t, 700)
	groups, ok, err := e.KeywordGroups([]string{"kw0"})
	if err != nil || !ok {
		t.Fatalf("KeywordGroups: %v ok=%v", err, ok)
	}
	n := e.CandidateCount(groups)
	if n < 0 {
		t.Fatalf("CandidateCount = %d", n)
	}
	// Narrowing the query can only shrink the candidate set.
	groups2, ok, err := e.KeywordGroups([]string{"kw0", "kw1"})
	if err != nil || !ok {
		t.Skip("kw1 missing from this instance")
	}
	if n2 := e.CandidateCount(groups2); n2 > n {
		t.Fatalf("conjunctive candidates %d exceed single-keyword %d", n2, n)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
