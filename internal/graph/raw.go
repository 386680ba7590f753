package graph

import (
	"fmt"

	"s3/internal/dict"
	"s3/internal/rdf"
	"s3/internal/sparse"
	"s3/internal/text"
)

// Raw is the flat, exported view of a frozen Instance: every table needed
// to reconstruct it without re-running the build pipeline (no ontology
// saturation, no matrix normalisation, no component union-find), each in
// the form the instance holds it and the snapshot serialiser
// (internal/snap) stores it — per-node lists as CSR offsets plus one flat
// list. It is the contract between the two packages.
//
// What one pass over these tables derives is intentionally absent, and
// FromRaw derives it with the code Builder.Build runs: depths, document
// ordinals and children lists from Parent and DocRoots, the URI→node
// table from DictID, and the statistics from the tables. The sorted
// permutations are the derived arrays it keeps (DictPerm, TriplePOS):
// sorts to build, linear scans to check.
//
// # Immutability contract
//
// FromRaw retains every slice it is handed and Raw() shares the
// instance's own slices: a Raw is a *view*, never a copy. Whoever
// produces the backing arrays owns their lifetime and must keep them
// readable and unmodified for as long as the instance lives — this is
// precisely what lets a memory-mapped snapshot serve queries without
// materialising anything, and it is why mutating a Raw (or the file
// behind a mapping) while an instance built over it is in use is
// undefined behaviour.
type Raw struct {
	// The dictionary in the form dict.FromArena takes: string i is
	// DictArena[DictOffs[i]:DictOffs[i+1]], and DictPerm lists the ids in
	// ascending string order.
	DictArena []byte
	DictOffs  []int64
	DictPerm  []int32
	// Lang / KeepStopwords describe the text analyzer the instance was
	// built with (queries stem keywords through it).
	Lang          text.Lang
	KeepStopwords bool
	// Triples is the saturated ontology in insertion order; TriplePOS
	// lists its indices sorted by (P,O,S).
	Triples   []rdf.Triple
	TriplePOS []int32

	// Node tables, indexed by NID. The content keywords of v are
	// KwList[KwOff[v]:KwOff[v+1]].
	DictID   []dict.ID
	Kind     []NodeKind
	Parent   []NID
	NodeName []dict.ID
	KwOff    []int64
	KwList   []dict.ID

	// Network layer. The out-edges of v are EdgeList[EdgeOff[v]:EdgeOff[v+1]].
	EdgeOff      []int64
	EdgeList     []Edge
	MatrixRowPtr []int32
	MatrixCol    []int32
	MatrixVal    []float64

	// Component partition.
	Comp  []int32
	NComp int

	// Entity lists. TagInfos is aligned with TagList.
	Users    []NID
	DocRoots []NID
	TagList  []NID
	TagInfos []TagInfo
	Comments []CommentEdge
	Posts    []PostEdge

	// Keyword document frequencies, sorted by keyword id (canonical order
	// so serialising a Raw is deterministic).
	KwFreqKeys   []dict.ID
	KwFreqCounts []int32
}

// Raw returns the instance's flat view, FromRaw's exact inverse. It
// shares every slice with the instance; callers must treat it as
// read-only. Strings interned into the dictionary's overflow after the
// instance was made (by the RDF export) are not part of it.
func (in *Instance) Raw() *Raw {
	r := &Raw{
		Lang:          in.analyzer.Lang,
		KeepStopwords: in.analyzer.KeepStopwords,
		Triples:       in.ont.Triples(),
		DictID:        in.dictID,
		Kind:          in.kind,
		Parent:        in.parent,
		NodeName:      in.nodeName,
		KwOff:         in.kwOff,
		KwList:        in.kwList,
		EdgeOff:       in.edgeOff,
		EdgeList:      in.edgeList,
		Comp:          in.comp,
		NComp:         in.nComp,
		Users:         in.users,
		DocRoots:      in.docRoots,
		TagList:       in.tagList,
		TagInfos:      in.tagInfos,
		Comments:      in.comments,
		Posts:         in.posts,
		KwFreqKeys:    in.kwFreqKeys,
		KwFreqCounts:  in.kwFreqCounts,
	}
	r.DictArena, r.DictOffs, r.DictPerm = in.dict.Arena()
	r.TriplePOS = in.ont.Pos()
	_, r.MatrixRowPtr, r.MatrixCol, r.MatrixVal = in.matrix.Raw()
	return r
}

// FromRaw reconstructs a frozen Instance from its flat view, over arrays
// whose integrity the caller has checksummed (the sections of a snapshot,
// mapped or read into a private buffer). It builds the dictionary
// (dict.FromArena) and the sorted ontology (rdf.FromTriplesFrozen) over
// the stored arenas and permutations, whose order is cheaper to check
// than to rebuild. The Raw's slices are retained (see the immutability
// contract above).
//
// Every check is a linear scan. The structural ones keep slicing and tree
// walks panic-free: offset-table monotonicity, index bounds and parent
// pre-order. The content ones hold the stored dictionary, triple, tag and
// frequency-keyword lists to the ascending order their binary searches
// need, and triple and edge weights to the ranges the builder accepts.
// The rest is derived as Builder.Build derives it, each in one pass:
// depths and document ordinals over Parent (deriveTree, refusing a tree
// the builder cannot make), the children lists, the URI→node table over
// DictID (refusing a URI that names two nodes) and the statistics. So a
// file that passes its checksums but is internally inconsistent is
// refused, never served.
func FromRaw(r *Raw) (*Instance, error) {
	n := len(r.DictID)
	for name, l := range map[string]int{
		"Kind": len(r.Kind), "Parent": len(r.Parent),
		"NodeName": len(r.NodeName), "Comp": len(r.Comp),
	} {
		if l != n {
			return nil, fmt.Errorf("graph: raw table %s has %d entries for %d nodes", name, l, n)
		}
	}
	if len(r.TagInfos) != len(r.TagList) {
		return nil, fmt.Errorf("graph: %d tag infos for %d tags", len(r.TagInfos), len(r.TagList))
	}
	if len(r.KwFreqCounts) != len(r.KwFreqKeys) {
		return nil, fmt.Errorf("graph: %d keyword counts for %d keywords", len(r.KwFreqCounts), len(r.KwFreqKeys))
	}
	d, err := dict.FromArena(r.DictArena, r.DictOffs, r.DictPerm)
	if err != nil {
		return nil, err
	}
	ont, err := rdf.FromTriplesFrozen(d, r.Triples, r.TriplePOS)
	if err != nil {
		return nil, err
	}
	nd := dict.ID(d.Len())
	in := &Instance{
		dict:         d,
		ont:          ont,
		analyzer:     text.Analyzer{Lang: r.Lang, KeepStopwords: r.KeepStopwords},
		dictID:       r.DictID,
		kind:         r.Kind,
		parent:       r.Parent,
		nodeName:     r.NodeName,
		kwOff:        r.KwOff,
		kwList:       r.KwList,
		edgeOff:      r.EdgeOff,
		edgeList:     r.EdgeList,
		comp:         r.Comp,
		nComp:        r.NComp,
		users:        r.Users,
		docRoots:     r.DocRoots,
		tagList:      r.TagList,
		tagInfos:     r.TagInfos,
		comments:     r.Comments,
		posts:        r.Posts,
		kwFreqKeys:   r.KwFreqKeys,
		kwFreqCounts: r.KwFreqCounts,
	}
	if err := checkCSR(r.KwOff, n, len(r.KwList), "content keyword"); err != nil {
		return nil, err
	}
	if err := checkCSR(r.EdgeOff, n, len(r.EdgeList), "edge"); err != nil {
		return nil, err
	}
	var maxURI, maxName1, maxComp1 uint32
	for v := 0; v < n; v++ {
		if x := uint32(r.DictID[v]); x > maxURI {
			maxURI = x
		}
		if x := uint32(r.NodeName[v]) + 1; x > maxName1 {
			maxName1 = x
		}
		if x := uint32(r.Comp[v]) + 1; x > maxComp1 {
			maxComp1 = x
		}
	}
	if n > 0 {
		if maxURI >= uint32(nd) || maxName1 > uint32(nd) {
			return nil, fmt.Errorf("graph: node URI or name outside dictionary of %d", nd)
		}
		if r.NComp < 0 || maxComp1 > uint32(r.NComp) {
			return nil, fmt.Errorf("graph: node component outside %d components", r.NComp)
		}
	}
	// Branch-free max reductions over the flat lists: uint32(x) folds
	// negatives in, and the +1 bias maps the NoID/NoNID sentinels (-1) to
	// 0, which every bound accepts.
	var maxKw1 uint32
	for _, k := range r.KwList {
		if v := uint32(k) + 1; v > maxKw1 {
			maxKw1 = v
		}
	}
	if maxKw1 > uint32(nd) {
		return nil, fmt.Errorf("graph: content keyword outside dictionary of %d", nd)
	}
	var maxTo, maxProp1 uint32
	badW := false
	for i := range r.EdgeList {
		if v := uint32(r.EdgeList[i].To); v > maxTo {
			maxTo = v
		}
		if v := uint32(r.EdgeList[i].Prop) + 1; v > maxProp1 {
			maxProp1 = v
		}
		// The range Builder.AddSocial accepts; NaN fails it too.
		if w := r.EdgeList[i].W; !(w > 0 && w <= 1) {
			badW = true
		}
	}
	if len(r.EdgeList) > 0 && (maxTo >= uint32(n) || maxProp1 > uint32(nd)) {
		return nil, fmt.Errorf("graph: edge outside instance of %d nodes / dictionary of %d", n, nd)
	}
	if badW {
		return nil, fmt.Errorf("graph: edge weight outside (0,1]")
	}
	checkNIDs := func(vs []NID, what string) error {
		for _, v := range vs {
			if uint32(v) >= uint32(n) {
				return fmt.Errorf("graph: %s node outside instance of %d nodes", what, n)
			}
		}
		return nil
	}
	if err := checkNIDs(r.Users, "user"); err != nil {
		return nil, err
	}
	if err := checkNIDs(r.DocRoots, "document root"); err != nil {
		return nil, err
	}
	if in.depth, in.docOf, err = deriveTree(r.Kind, r.Parent, r.DocRoots); err != nil {
		return nil, err
	}
	if err := checkNIDs(r.TagList, "tag"); err != nil {
		return nil, err
	}
	if !strictlyAscending(r.TagList) {
		return nil, fmt.Errorf("graph: tag list is not strictly ascending")
	}
	for _, ti := range r.TagInfos {
		if ti.Subject < 0 || int(ti.Subject) >= n || ti.Author < 0 || int(ti.Author) >= n {
			return nil, fmt.Errorf("graph: tag info outside instance of %d nodes", n)
		}
		if (ti.Keyword >= nd && ti.Keyword != dict.NoID) || (ti.Type >= nd && ti.Type != dict.NoID) {
			return nil, fmt.Errorf("graph: tag info outside dictionary of %d", nd)
		}
	}
	for _, c := range r.Comments {
		if c.Comment < 0 || int(c.Comment) >= n || c.Target < 0 || int(c.Target) >= n {
			return nil, fmt.Errorf("graph: comment edge outside instance of %d nodes", n)
		}
	}
	for _, p := range r.Posts {
		if p.Doc < 0 || int(p.Doc) >= n || p.User < 0 || int(p.User) >= n {
			return nil, fmt.Errorf("graph: post edge outside instance of %d nodes", n)
		}
	}
	for _, k := range r.KwFreqKeys {
		if k >= nd && k != dict.NoID {
			return nil, fmt.Errorf("graph: frequency keyword outside dictionary of %d", nd)
		}
	}
	if !strictlyAscending(r.KwFreqKeys) {
		return nil, fmt.Errorf("graph: frequency keywords are not strictly ascending")
	}
	if in.nidByID, err = nodesByURI(r.DictID, int(nd)); err != nil {
		return nil, err
	}
	in.childOff, in.childList = childrenOf(r.Parent)
	in.matrix, err = sparse.FromRaw(n, r.MatrixRowPtr, r.MatrixCol, r.MatrixVal)
	if err != nil {
		return nil, err
	}
	in.computeStats()
	return in, nil
}

// nodesByURI derives the dense URI→node table over a dictionary of nd ids
// from the node URIs (each below nd). An entry holds its node plus one, so
// the zero a fresh table holds means the id names no node, and the table
// needs no filling pass. A URI that names two nodes is refused.
func nodesByURI(dictID []dict.ID, nd int) ([]NID, error) {
	byID := make([]NID, nd)
	for v, id := range dictID {
		if byID[id] != 0 {
			return nil, fmt.Errorf("graph: nodes %d and %d share one URI", byID[id]-1, v)
		}
		byID[id] = NID(v) + 1
	}
	return byID, nil
}

// deriveTree derives each node's depth and document ordinal (its
// document's index in docRoots, -1 outside documents) in one ascending
// pass over the parent table, which must be in pre-order (every parent
// below its child) so a parent's values are known before its children's.
// Only document nodes nest, each document's root is a parentless document
// node listed once in docRoots, and every document node lies in a listed
// document; a table that breaks any of these is refused.
func deriveTree(kind []NodeKind, parent, docRoots []NID) (depth, docOf []int32, err error) {
	n := len(parent)
	depth = make([]int32, n)
	docOf = make([]int32, n)
	for v := range docOf {
		docOf[v] = -1
	}
	for i, r := range docRoots {
		if kind[r] != KindDocNode || parent[r] != NoNID {
			return nil, nil, fmt.Errorf("graph: document root %d is not a parentless document node", r)
		}
		if docOf[r] >= 0 {
			return nil, nil, fmt.Errorf("graph: document root %d is listed twice", r)
		}
		docOf[r] = int32(i)
	}
	for v, p := range parent {
		switch {
		case p == NoNID:
			if kind[v] == KindDocNode && docOf[v] < 0 {
				return nil, nil, fmt.Errorf("graph: document node %d lies in no listed document", v)
			}
		// Pre-order keeps the ancestor walks cycle-free; uint32 folds the
		// negative case in.
		case uint32(p) >= uint32(v):
			return nil, nil, fmt.Errorf("graph: node %d has parent %d out of pre-order", v, p)
		case kind[v] != KindDocNode || kind[p] != KindDocNode:
			return nil, nil, fmt.Errorf("graph: %s node %d has a %s parent %d; only document nodes nest", kind[v], v, kind[p], p)
		default:
			depth[v] = depth[p] + 1
			docOf[v] = docOf[p]
		}
	}
	return depth, docOf, nil
}

// childrenOf derives the children lists from a pre-order parent table
// (every parent below its child) in CSR form with one counting sort: the
// children of v are list[off[v]:off[v+1]]. They are placed in ascending
// NID order, which pre-order numbering makes document order.
func childrenOf(parent []NID) (off []int32, list []NID) {
	n := len(parent)
	// Counted at p+2 and summed, off[p+1] is where p's children start; it
	// advances as they are placed, ending where p+1's start.
	off = make([]int32, n+2)
	for _, p := range parent {
		if p != NoNID {
			off[p+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	list = make([]NID, off[n+1])
	for v, p := range parent {
		if p != NoNID {
			list[off[p+1]] = NID(v)
			off[p+1]++
		}
	}
	return off[:n+1], list
}

// flatten freezes per-node lists into CSR form, the one an instance holds
// them in: the list of v is list[off[v]:off[v+1]].
func flatten[T any](rows [][]T) (off []int64, list []T) {
	off = make([]int64, len(rows)+1)
	for v, r := range rows {
		off[v+1] = off[v] + int64(len(r))
	}
	list = make([]T, 0, off[len(rows)])
	for _, r := range rows {
		list = append(list, r...)
	}
	return off, list
}

// strictlyAscending reports whether s ascends with no repeats.
func strictlyAscending[T dict.ID | NID](s []T) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// checkCSR validates an n+1-entry offset table spanning [0, total]
// monotonically — the structural invariant behind every flattened list.
func checkCSR(off []int64, n, total int, what string) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s offsets have %d entries for %d nodes", what, len(off), n)
	}
	if off[0] != 0 || off[n] != int64(total) {
		return fmt.Errorf("graph: %s offsets span [%d, %d] for %d entries", what, off[0], off[n], total)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("graph: decreasing %s offset at node %d", what, i)
		}
	}
	return nil
}
