package datagen

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s3/internal/graph"
	"s3/internal/text"
)

func TestWordsAreDeterministicAndDistinct(t *testing.T) {
	seen := make(map[string]int)
	for i := 0; i < 2000; i++ {
		w := Word(i)
		if w == "" {
			t.Fatalf("Word(%d) empty", i)
		}
		if j, dup := seen[w]; dup {
			t.Fatalf("Word(%d) == Word(%d) == %q", i, j, w)
		}
		seen[w] = i
		if Word(i) != w {
			t.Fatalf("Word(%d) not deterministic", i)
		}
	}
	if FrenchWord(3) == "" || FrenchWord(3) != FrenchWord(3) {
		t.Fatal("FrenchWord not deterministic")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 1.4, 1000)
	counts := make(map[int]int)
	for i := 0; i < 20000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] < 10*counts[50] {
		t.Fatalf("Zipf not skewed enough: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestPowerLawDegreesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	degs := PowerLawDegrees(rng, 5000, 10, 800)
	var sum, maxDeg int
	for _, d := range degs {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
		if d < 0 {
			t.Fatal("negative degree")
		}
	}
	mean := float64(sum) / float64(len(degs))
	if mean < 5 || mean > 20 {
		t.Fatalf("mean degree %v far from target 10", mean)
	}
	if maxDeg < 50 {
		t.Fatalf("max degree %d: no heavy tail", maxDeg)
	}
}

func TestOntologyExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ont := GenOntology(rng, DefaultOntologyOptions())
	spec := graph.Spec{Ontology: ont.Triples}
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	// Root classes must have non-trivial extensions (sub-classes plus
	// typed entities).
	root, ok := in.Dict().Lookup(ont.ClassNames[0])
	if !ok {
		t.Fatalf("root class %s not in the dictionary", ont.ClassNames[0])
	}
	ext := in.Ontology().Ext(root)
	if len(ext) < 3 {
		t.Fatalf("Ext(%s) = %d entries, want ≥ 3", ont.ClassNames[0], len(ext))
	}
}

func TestTwitterShape(t *testing.T) {
	o := DefaultTwitterOptions()
	o.Users, o.Tweets = 300, 1500
	spec, rep := Twitter(o)
	if rep.Tweets != o.Tweets {
		t.Fatalf("tweets = %d, want %d", rep.Tweets, o.Tweets)
	}
	// The retweet and reply shares must match Figure 4 (±3% absolute:
	// small-sample noise plus the "no original yet" warm-up).
	if math.Abs(rep.RetweetFrac-0.85) > 0.03 {
		t.Fatalf("retweet fraction %v, want ≈ 0.85", rep.RetweetFrac)
	}
	if math.Abs(rep.ReplyFrac-0.069) > 0.03 {
		t.Fatalf("reply fraction %v, want ≈ 0.069", rep.ReplyFrac)
	}
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	s := in.Stats()
	if s.Users != o.Users {
		t.Fatalf("users = %d", s.Users)
	}
	if s.Documents != rep.Documents {
		t.Fatalf("documents = %d, want %d", s.Documents, rep.Documents)
	}
	if s.Tags != rep.Tags+rep.Endorsements {
		t.Fatalf("tags = %d, want %d", s.Tags, rep.Tags+rep.Endorsements)
	}
	if s.SocialEdges == 0 || s.AvgSocialDegree <= 1 {
		t.Fatalf("social graph too thin: %+v", s)
	}
	// Every tweet document has the 3-node structure (text/date/geo).
	if s.Fragments != 3*s.Documents {
		t.Fatalf("fragments = %d, want %d", s.Fragments, 3*s.Documents)
	}
}

func TestTwitterDeterminism(t *testing.T) {
	o := DefaultTwitterOptions()
	o.Users, o.Tweets = 100, 400
	a, _ := Twitter(o)
	b, _ := Twitter(o)
	if !reflect.DeepEqual(a.Users, b.Users) || len(a.Docs) != len(b.Docs) ||
		!reflect.DeepEqual(a.Social, b.Social) || !reflect.DeepEqual(a.Tags, b.Tags) {
		t.Fatal("same seed produced different specs")
	}
	o.Seed = 99
	c, _ := Twitter(o)
	if reflect.DeepEqual(a.Social, c.Social) && len(a.Docs) == len(c.Docs) && reflect.DeepEqual(a.Tags, c.Tags) {
		t.Fatal("different seeds produced identical specs")
	}
}

func TestVodkasterShape(t *testing.T) {
	o := DefaultVodkasterOptions()
	o.Users, o.Movies = 200, 150
	spec := Vodkaster(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	s := in.Stats()
	if s.Users != o.Users || s.Documents < o.Movies {
		t.Fatalf("stats = %+v", s)
	}
	if s.Tags != 0 {
		t.Fatalf("I2 must have no tags, got %d", s.Tags)
	}
	if s.OntologyTriples > 10 {
		t.Fatalf("I2 must have no knowledge base, got %d triples", s.OntologyTriples)
	}
	if s.Comments == 0 {
		t.Fatal("comment threads missing")
	}
	// Threads keep each movie's comments in one component: components ≤
	// movies.
	if s.Components > o.Movies {
		t.Fatalf("components = %d > movies = %d", s.Components, o.Movies)
	}
	if !inExtension(in, graph.PropSocial, "vdk:follow") {
		t.Fatal("vdk:follow not a sub-property of S3:social")
	}
}

func TestYelpShape(t *testing.T) {
	o := DefaultYelpOptions()
	o.Users, o.Businesses = 300, 200
	spec := Yelp(o)
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	s := in.Stats()
	if s.Users != o.Users || s.Documents < o.Businesses {
		t.Fatalf("stats = %+v", s)
	}
	if s.Tags != 0 {
		t.Fatalf("I3 must have no tags, got %d", s.Tags)
	}
	if s.OntologyTriples == 0 {
		t.Fatal("I3 must be ontology-enriched")
	}
	if s.Components > o.Businesses {
		t.Fatalf("components = %d > businesses = %d", s.Components, o.Businesses)
	}
	if !inExtension(in, graph.PropSocial, "yelp:friend") {
		t.Fatal("yelp:friend not a sub-property of S3:social")
	}
}

func TestRandomSpecAlwaysBuilds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := RandomSpec(rng, DefaultRandomOptions())
		if _, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// inExtension reports whether b is in the ontology extension of keyword k
// (Definition 2.1): k's sub-classes, sub-properties and instances.
func inExtension(in *graph.Instance, k, b string) bool {
	kid, ok1 := in.Dict().Lookup(k)
	bid, ok2 := in.Dict().Lookup(b)
	return ok1 && ok2 && slices.Contains(in.Ontology().Ext(kid), bid)
}
