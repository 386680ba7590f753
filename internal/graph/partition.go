package graph

import (
	"fmt"
	"sort"
)

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

// ComponentOwners is the owner table of a partition of nComp components
// into groups: entry c is the group holding component c. It refuses a
// component that is in two groups, in none or out of range, so a table it
// returns assigns every component exactly once. A missing component is
// reported before an out-of-range one: when nComp is the number of ids the
// groups list, an id out of range always comes with one left out, and
// that is the one to name.
func ComponentOwners(nComp int, groups [][]int32) ([]int32, error) {
	owner := make([]int32, nComp)
	for c := range owner {
		owner[c] = -1
	}
	var outside []int32
	for g, comps := range groups {
		for _, c := range comps {
			if c < 0 || int(c) >= nComp {
				outside = append(outside, c)
				continue
			}
			if owner[c] != -1 {
				return nil, fmt.Errorf("graph: component %d assigned to groups %d and %d", c, owner[c], g)
			}
			owner[c] = int32(g)
		}
	}
	for c, g := range owner {
		if g == -1 {
			return nil, fmt.Errorf("graph: component %d assigned to no group", c)
		}
	}
	if len(outside) > 0 {
		return nil, fmt.Errorf("graph: component %d outside instance of %d components", outside[0], nComp)
	}
	return owner, nil
}

// ShardContent counts, per group of an owner table over the instance's
// components (ComponentOwners), the documents and the tags its components
// hold. Users are shared by every group and counted in none, as is
// anything else without a component.
func ShardContent(in *Instance, owner []int32, groups int) (docs, tags []int) {
	docs, tags = make([]int, groups), make([]int, groups)
	for _, r := range in.docRoots {
		if c := in.comp[r]; c >= 0 {
			docs[owner[c]]++
		}
	}
	for _, t := range in.tagList {
		if c := in.comp[t]; c >= 0 {
			tags[owner[c]]++
		}
	}
	return docs, tags
}
