package doc_test

import (
	"testing"

	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/text"
)

// paperInstance freezes the motivating example's d0 (fragments d0.3.2 and
// d0.5.1 at the paper's positions) into a graph instance, which answers the
// tree algebra of a document: ancestry, vertical neighbours and pos(d, f).
func paperInstance(t *testing.T) (*graph.Instance, func(uri string) graph.NID) {
	t.Helper()
	root := &doc.Node{URI: "d0", Name: "article", Children: []*doc.Node{
		{Name: "sec"}, {Name: "sec"},
		{Name: "sec", Children: []*doc.Node{
			{Name: "par"},
			{Name: "par", Text: "some disputed paragraph"},
		}},
		{Name: "sec"},
		{Name: "sec", Children: []*doc.Node{
			{Name: "par", Text: "graduation text"},
		}},
	}}
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	if err := b.AddDocument(root); err != nil {
		t.Fatalf("AddDocument: %v", err)
	}
	in, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return in, func(uri string) graph.NID {
		t.Helper()
		n, ok := in.NIDOf(uri)
		if !ok {
			t.Fatalf("node %s not found", uri)
		}
		return n
	}
}

func TestAncestryAndVerticalNeighbors(t *testing.T) {
	in, nid := paperInstance(t)
	root := nid("d0")
	d032 := nid("d0.3.2")
	d051 := nid("d0.5.1")
	d03 := nid("d0.3")

	if !in.IsAncestorOrSelf(root, d032) || !in.IsAncestorOrSelf(d03, d032) {
		t.Fatal("ancestor tests failed")
	}
	if in.IsAncestorOrSelf(d032, d03) {
		t.Fatal("descendant misreported as ancestor")
	}
	if !in.IsAncestorOrSelf(d032, d032) {
		t.Fatal("self must count as ancestor-or-self")
	}
	// The paper's u3/u4 situation: d0.3.2 and d0.5.1 are NOT vertical
	// neighbours (disjoint subtrees), but each is a neighbour of d0.
	if in.VerticalNeighbors(d032, d051) {
		t.Fatal("disjoint fragments must not be vertical neighbours")
	}
	if !in.VerticalNeighbors(root, d032) || !in.VerticalNeighbors(d051, root) {
		t.Fatal("fragment and its document must be vertical neighbours")
	}
}

func TestPosLen(t *testing.T) {
	in, nid := paperInstance(t)
	root := nid("d0")
	d032 := nid("d0.3.2")
	d03 := nid("d0.3")

	if l, ok := in.PosLen(root, d032); !ok || l != 2 {
		t.Fatalf("PosLen(root, d0.3.2) = %d,%v, want 2,true", l, ok)
	}
	if l, ok := in.PosLen(d03, d032); !ok || l != 1 {
		t.Fatalf("PosLen(d0.3, d0.3.2) = %d,%v, want 1,true", l, ok)
	}
	if l, ok := in.PosLen(root, root); !ok || l != 0 {
		t.Fatalf("PosLen(root, root) = %d,%v, want 0,true", l, ok)
	}
	if _, ok := in.PosLen(d032, d03); ok {
		t.Fatal("PosLen must fail when f is not in Frag(d)")
	}
}
