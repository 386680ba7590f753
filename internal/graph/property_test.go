package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// Structural invariants of the frozen instance, checked over random
// specs: stochastic matrix rows, consistent node tables, component
// closure under the partOf/commentsOn/hasSubject relations, and stats
// that add up.
func TestInstanceInvariantsOnRandomSpecs(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := datagen.RandomSpec(rng, datagen.DefaultRandomOptions())
		in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Matrix rows are probability distributions (or empty).
		totalW := graph.NeighborhoodOutWeights(in)
		for v := 0; v < in.NumNodes(); v++ {
			sum := in.Matrix().RowSum(v)
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Fatalf("seed %d: row %s sums to %v", seed, in.URIOf(graph.NID(v)), sum)
			}
			if (sum == 0) != (totalW[v] == 0) {
				t.Fatalf("seed %d: row/weight mismatch at %s", seed, in.URIOf(graph.NID(v)))
			}
		}

		// Node tables are mutually consistent.
		for v := 0; v < in.NumNodes(); v++ {
			n := graph.NID(v)
			switch in.KindOf(n) {
			case graph.KindDocNode:
				if in.DocRootOf(n) == graph.NoNID {
					t.Fatalf("seed %d: doc node %s has no root", seed, in.URIOf(n))
				}
				if p := in.ParentOf(n); p != graph.NoNID {
					if in.DepthOf(n) != in.DepthOf(p)+1 {
						t.Fatalf("seed %d: depth inconsistency at %s", seed, in.URIOf(n))
					}
					found := false
					for _, c := range in.ChildrenOf(p) {
						if c == n {
							found = true
						}
					}
					if !found {
						t.Fatalf("seed %d: %s missing from parent's children", seed, in.URIOf(n))
					}
				}
				if in.CompOf(n) < 0 {
					t.Fatalf("seed %d: doc node %s has no component", seed, in.URIOf(n))
				}
			case graph.KindUser:
				if in.CompOf(n) != -1 {
					t.Fatalf("seed %d: user %s in a component", seed, in.URIOf(n))
				}
			case graph.KindTag:
				ti, ok := in.TagInfoOf(n)
				if !ok {
					t.Fatalf("seed %d: tag %s lacks info", seed, in.URIOf(n))
				}
				// A tag always shares its subject's component.
				if in.CompOf(n) != in.CompOf(ti.Subject) {
					t.Fatalf("seed %d: tag %s not in subject's component", seed, in.URIOf(n))
				}
			}
		}

		// Components are closed under comment and tag edges.
		for _, ce := range in.Comments() {
			if in.CompOf(ce.Comment) != in.CompOf(ce.Target) {
				t.Fatalf("seed %d: comment edge crosses components", seed)
			}
		}

		// Stats add up.
		s := in.Stats()
		if s.Nodes != len(in.Users())+s.Documents+s.Fragments+s.Tags {
			t.Fatalf("seed %d: node stats inconsistent: %+v", seed, s)
		}
		if s.Components != in.NumComponents() {
			t.Fatalf("seed %d: component stats inconsistent", seed)
		}
	}
}

// URI round trip: every node resolves back to itself.
func TestNIDURIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	spec := datagen.RandomSpec(rng, datagen.DefaultRandomOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < in.NumNodes(); v++ {
		n := graph.NID(v)
		got, ok := in.NIDOf(in.URIOf(n))
		if !ok || got != n {
			t.Fatalf("round trip failed for %s", in.URIOf(n))
		}
	}
}
