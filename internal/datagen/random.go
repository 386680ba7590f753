// Package datagen generates synthetic S3 instances. It provides (a) small
// random instances used by property-based tests (this file) and (b) the
// three paper-shaped dataset generators standing in for the Twitter,
// Vodkaster and Yelp datasets of §5.1 (twitter.go, vodkaster.go, yelp.go),
// plus the synthetic ontology that replaces DBpedia.
package datagen

import (
	"fmt"
	"math/rand"

	"s3/internal/doc"
	"s3/internal/graph"
)

// RandomOptions bounds the size of RandomSpec instances.
type RandomOptions struct {
	MaxUsers    int // ≥ 2
	MaxDocs     int // ≥ 1
	MaxDepth    int // document tree depth (≥ 1)
	MaxFanout   int // children per node (≥ 1)
	Keywords    int // vocabulary size (≥ 2)
	TagDensity  float64
	EdgeDensity float64
}

// DefaultRandomOptions sizes instances so that exhaustive oracles stay
// fast while every code path (tags on tags, endorsements, comment chains,
// ontology extensions) is exercised.
func DefaultRandomOptions() RandomOptions {
	return RandomOptions{
		MaxUsers:    6,
		MaxDocs:     8,
		MaxDepth:    3,
		MaxFanout:   3,
		Keywords:    8,
		TagDensity:  0.5,
		EdgeDensity: 0.4,
	}
}

// RandomSpec draws a random, always-valid instance specification. The same
// rng state yields the same spec.
func RandomSpec(rng *rand.Rand, o RandomOptions) graph.Spec {
	var spec graph.Spec

	kw := func(i int) string { return fmt.Sprintf("kw%d", i) }
	nUsers := 2 + rng.Intn(o.MaxUsers-1)
	for i := 0; i < nUsers; i++ {
		spec.Users = append(spec.Users, fmt.Sprintf("user%d", i))
	}
	// A small subclass lattice over the keyword vocabulary, giving some
	// query keywords non-trivial extensions.
	for i := 0; i < o.Keywords/2; i++ {
		a, b := rng.Intn(o.Keywords), rng.Intn(o.Keywords)
		if a != b {
			spec.Ontology = append(spec.Ontology, [3]string{kw(a), "rdfs:subClassOf", kw(b)})
		}
	}

	// Social edges.
	for i := 0; i < nUsers; i++ {
		for j := 0; j < nUsers; j++ {
			if i != j && rng.Float64() < o.EdgeDensity {
				w := 0.1 + float64(0.9*rng.Float64())
				spec.Social = append(spec.Social, graph.SocialSpec{
					From: spec.Users[i], To: spec.Users[j], W: w,
				})
			}
		}
	}

	// Documents with random small trees; every node holds 0-2 keywords.
	nDocs := 1 + rng.Intn(o.MaxDocs)
	var allNodes [][]string // per doc, its node URIs in pre-order
	for di := 0; di < nDocs; di++ {
		uri := fmt.Sprintf("doc%d", di)
		root := &doc.Node{URI: uri, Name: "doc"}
		uris := []string{uri}
		var grow func(n *doc.Node, parentURI string, depth int)
		grow = func(n *doc.Node, parentURI string, depth int) {
			for k := 0; k < rng.Intn(3); k++ {
				n.Keywords = append(n.Keywords, kw(rng.Intn(o.Keywords)))
			}
			if depth >= o.MaxDepth {
				return
			}
			for c := 0; c < rng.Intn(o.MaxFanout+1); c++ {
				childURI := fmt.Sprintf("%s.%d", parentURI, c+1)
				child := &doc.Node{URI: childURI, Name: "sec"}
				n.Children = append(n.Children, child)
				uris = append(uris, childURI)
				grow(child, childURI, depth+1)
			}
		}
		grow(root, uri, 0)
		spec.Docs = append(spec.Docs, root)
		allNodes = append(allNodes, uris)

		// Every document gets an author; some fragments get one too.
		spec.Posts = append(spec.Posts, graph.PostSpec{Doc: uri, User: spec.Users[rng.Intn(nUsers)]})
		if len(uris) > 1 && rng.Float64() < 0.3 {
			spec.Posts = append(spec.Posts, graph.PostSpec{
				Doc: uris[1+rng.Intn(len(uris)-1)], User: spec.Users[rng.Intn(nUsers)],
			})
		}
	}

	// Comments: later documents may comment on nodes of earlier ones
	// (acyclic, like real reply chains).
	for di := 1; di < nDocs; di++ {
		if rng.Float64() < 0.5 {
			target := allNodes[rng.Intn(di)]
			spec.Comments = append(spec.Comments, graph.CommentSpec{
				Comment: allNodes[di][0],
				Target:  target[rng.Intn(len(target))],
			})
		}
	}

	// Tags: keyword tags, endorsements, and occasionally tags on tags.
	nTags := int(float64(nDocs) * o.TagDensity * (1 + float64(rng.Float64())))
	var tagURIs []string
	for ti := 0; ti < nTags; ti++ {
		uri := fmt.Sprintf("tag%d", ti)
		var subject string
		if len(tagURIs) > 0 && rng.Float64() < 0.25 {
			subject = tagURIs[rng.Intn(len(tagURIs))]
		} else {
			nodes := allNodes[rng.Intn(nDocs)]
			subject = nodes[rng.Intn(len(nodes))]
		}
		keyword := ""
		if rng.Float64() < 0.7 {
			keyword = kw(rng.Intn(o.Keywords))
		}
		spec.Tags = append(spec.Tags, graph.TagSpec{
			URI: uri, Subject: subject,
			Author:  spec.Users[rng.Intn(nUsers)],
			Keyword: keyword,
		})
		tagURIs = append(tagURIs, uri)
	}
	return spec
}
