package graph

import (
	"fmt"
	"sort"

	"s3/internal/dict"
)

// projection is the per-shard overlay of a component-projected instance:
// the content-entity lists and statistics restricted to an owned set of
// components. The heavy substrate — dictionary, node tables, network
// adjacency, normalised transition matrix and ontology — is shared with
// the base instance, because the all-paths social proximity of §3.4 is
// defined over the *whole* network graph: removing another shard's
// document or tag nodes would change prox(u, src) and therefore scores.
// Components are the unit of candidate generation (§5.2), not of the
// proximity substrate, so a projection restricts exactly the former.
type projection struct {
	comps []int32 // owned component ids, sorted
	owns  []bool  // indexed by component id

	docRoots []NID
	tags     []NID
	comments []CommentEdge
	posts    []PostEdge
	kwFreq   map[dict.ID]int
	stats    Stats
}

// ProjectComponents returns a self-consistent sub-instance owning exactly
// the given components: its document, tag, comment, post and
// keyword-frequency tables are restricted to them, and Stats reflects the
// restriction. Node tables, the network graph and the transition matrix
// are shared with the receiver (NIDs, component ids and proximity values
// are identical across all projections of one instance — the invariant
// that makes sharded search answer-equivalent to unsharded search).
// Component ids must be in range and not duplicated.
func (in *Instance) ProjectComponents(comps []int32) (*Instance, error) {
	if in.proj != nil {
		return nil, fmt.Errorf("graph: cannot project an already-projected instance")
	}
	p := &projection{
		// Non-nil even when empty: OwnedComponents distinguishes "owns
		// nothing" (a valid shard of an over-partitioned instance) from
		// "unprojected" (nil).
		comps: append(make([]int32, 0, len(comps)), comps...),
		owns:  make([]bool, in.nComp),
	}
	sort.Slice(p.comps, func(i, j int) bool { return p.comps[i] < p.comps[j] })
	for i, c := range p.comps {
		if c < 0 || int(c) >= in.nComp {
			return nil, fmt.Errorf("graph: component %d outside instance of %d components", c, in.nComp)
		}
		if i > 0 && p.comps[i-1] == c {
			return nil, fmt.Errorf("graph: duplicate component %d in projection", c)
		}
		p.owns[c] = true
	}

	for _, r := range in.docRoots {
		if p.owns[in.comp[r]] {
			p.docRoots = append(p.docRoots, r)
		}
	}
	for _, t := range in.tagList {
		if p.owns[in.comp[t]] {
			p.tags = append(p.tags, t)
		}
	}
	for _, c := range in.comments {
		if p.owns[in.comp[c.Comment]] {
			p.comments = append(p.comments, c)
		}
	}
	for _, po := range in.posts {
		if p.owns[in.comp[po.Doc]] {
			p.posts = append(p.posts, po)
		}
	}

	// Keyword document frequencies over the owned documents only, with the
	// same node-grain dedupe as the builder.
	p.kwFreq = make(map[dict.ID]int)
	var stack []NID
	for _, root := range p.docRoots {
		stack = in.SubtreeOf(root, stack[:0])
		for _, n := range stack {
			seen := make(map[dict.ID]struct{}, len(in.KeywordsOf(n)))
			for _, k := range in.KeywordsOf(n) {
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				p.kwFreq[k]++
			}
		}
	}

	p.stats = in.projectedStats(p)

	out := *in
	out.proj = p
	return &out, nil
}

// projectedStats restricts the Figure 4 statistics to a projection's
// components. The social layer (users, social edges, average degree) and
// the ontology are shared substrate and therefore inherited unchanged.
func (in *Instance) projectedStats(p *projection) Stats {
	s := in.stats
	s.Documents = len(p.docRoots)
	s.Tags = len(p.tags)
	s.Comments = len(p.comments)
	s.Posts = len(p.posts)
	s.Components = len(p.comps)
	s.DistinctKeywords = len(p.kwFreq)
	s.Fragments, s.KeywordOccurrences = 0, 0
	// Nodes and Edges count the shared users plus the owned content nodes.
	s.Nodes, s.Edges = 0, 0
	for v := range in.dictID {
		owned := in.kind[v] == KindUser || (in.comp[v] >= 0 && p.owns[in.comp[v]])
		if !owned {
			continue
		}
		s.Nodes++
		s.Edges += len(in.OutEdges(NID(v)))
		if in.kind[v] == KindDocNode && in.parent[v] != NoNID {
			s.Fragments++
		}
		s.KeywordOccurrences += len(in.KeywordsOf(NID(v)))
	}
	s.Edges += s.Fragments // tree edges, as in computeStats
	return s
}

// OwnedComponents returns the component ids a projection owns — empty
// but non-nil for a projection owning nothing — or nil for an
// unprojected instance (which owns every component).
func (in *Instance) OwnedComponents() []int32 {
	if in.proj == nil {
		return nil
	}
	return in.proj.comps
}

// OwnsComponent reports whether the instance owns the component: true for
// every in-range component on an unprojected instance.
func (in *Instance) OwnsComponent(c int32) bool {
	if c < 0 || int(c) >= in.nComp {
		return false
	}
	if in.proj == nil {
		return true
	}
	return in.proj.owns[c]
}

// PartitionComponents splits the instance's components into n balanced
// groups for sharding, using longest-processing-time greedy assignment by
// per-component document-node count (ties and ordering are deterministic,
// so the same instance always partitions the same way). Groups are
// returned with their component ids sorted; when the instance has fewer
// components than n, trailing groups are empty.
func PartitionComponents(in *Instance, n int) ([][]int32, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: shard count must be positive, got %d", n)
	}
	size := make([]int, in.nComp)
	for v := range in.dictID {
		if in.kind[v] == KindDocNode && in.comp[v] >= 0 {
			size[in.comp[v]]++
		}
	}
	order := make([]int32, in.nComp)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if size[order[i]] != size[order[j]] {
			return size[order[i]] > size[order[j]]
		}
		return order[i] < order[j]
	})
	groups := make([][]int32, n)
	load := make([]int, n)
	for _, c := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		groups[best] = append(groups[best], c)
		load[best] += size[c]
	}
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	return groups, nil
}
