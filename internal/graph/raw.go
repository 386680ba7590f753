package graph

import (
	"fmt"
	"sort"

	"s3/internal/dict"
	"s3/internal/rdf"
	"s3/internal/sparse"
	"s3/internal/text"
)

// Raw is the flat, exported view of a frozen Instance: every table needed
// to reconstruct it without re-running the build pipeline (no ontology
// saturation, no matrix normalisation, no component union-find). It is the
// contract between the graph package and the snapshot serialiser
// (internal/snap).
//
// Children lists and the URI→node table are intentionally absent — both
// follow from Parent and DictID, and FromRawAccel derives them.
//
// # Immutability contract
//
// FromRawAccel retains every slice it is handed and Raw() shares the
// instance's own slices: a Raw is a *view*, never a copy. Whoever
// produces the backing arrays owns their lifetime and must keep them
// readable and unmodified for as long as the instance lives — this is
// precisely what lets a memory-mapped snapshot serve queries without
// materialising anything, and it is why mutating a Raw (or the file
// behind a mapping) while an instance built over it is in use is
// undefined behaviour.
type Raw struct {
	// Strings is the dictionary content in ID order.
	Strings []string
	// Lang / KeepStopwords describe the text analyzer the instance was
	// built with (queries stem keywords through it).
	Lang          text.Lang
	KeepStopwords bool
	// Triples is the saturated ontology in insertion order.
	Triples []rdf.Triple

	// Node tables, indexed by NID.
	DictID   []dict.ID
	Kind     []NodeKind
	Parent   []NID
	Depth    []int32
	DocOf    []int32
	Keywords [][]dict.ID
	NodeName []dict.ID

	// Network layer.
	Out          [][]Edge
	TotalW       []float64
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

	Stats Stats
}

// Accel carries the structures an import takes prebuilt instead of
// building them from the Raw tables: the dictionary and frozen ontology
// are constructed by the caller (over the stored arenas and sorted
// permutations, whose order is cheaper to check than to rebuild), and the
// out-edge and keyword lists arrive as flat CSR arrays into the same
// snapshot bytes. FromRawAccel checks each against the Raw it accelerates
// with allocation-free linear scans.
type Accel struct {
	// Dict is the prebuilt dictionary whose content equals Raw.Strings.
	Dict *dict.Dict
	// Ont is the prebuilt (frozen) ontology over Dict.
	Ont *rdf.Graph
	// EdgeOff / EdgeList and KwOff / KwList are the out-edges and content
	// keywords in CSR form; they substitute for Raw.Out and Raw.Keywords
	// (which an accelerated import leaves nil), and the per-node headers
	// are materialised lazily on first use.
	EdgeOff  []int64
	EdgeList []Edge
	KwOff    []int64
	KwList   []dict.ID
}

// Raw flattens the instance. The returned struct shares slices with the
// instance wherever possible; callers must treat it as read-only.
func (in *Instance) Raw() *Raw {
	r := &Raw{
		Strings:       in.dict.Strings(),
		Lang:          in.analyzer.Lang,
		KeepStopwords: in.analyzer.KeepStopwords,
		Triples:       in.ont.Triples(),
		DictID:        in.dictID,
		Kind:          in.kind,
		Parent:        in.parent,
		Depth:         in.depth,
		DocOf:         in.docOf,
		Keywords:      in.kwTable(),
		NodeName:      in.nodeName,
		Out:           in.outTable(),
		TotalW:        in.totalW,
		Comp:          in.comp,
		NComp:         in.nComp,
		Users:         in.users,
		DocRoots:      in.docRoots,
		TagList:       in.tagList,
		Comments:      in.comments,
		Posts:         in.posts,
		Stats:         in.stats,
	}
	_, r.MatrixRowPtr, r.MatrixCol, r.MatrixVal = in.matrix.Raw()
	if in.tagInfos != nil {
		r.TagInfos = in.tagInfos
	} else {
		r.TagInfos = make([]TagInfo, len(in.tagList))
		for i, t := range in.tagList {
			r.TagInfos[i] = in.tagInfo[t]
		}
	}
	if in.kwFreqKeys != nil {
		r.KwFreqKeys, r.KwFreqCounts = in.kwFreqKeys, in.kwFreqCounts
	} else {
		r.KwFreqKeys = make([]dict.ID, 0, len(in.kwFreq))
		for k := range in.kwFreq {
			r.KwFreqKeys = append(r.KwFreqKeys, k)
		}
		sort.Slice(r.KwFreqKeys, func(i, j int) bool { return r.KwFreqKeys[i] < r.KwFreqKeys[j] })
		r.KwFreqCounts = make([]int32, len(r.KwFreqKeys))
		for i, k := range r.KwFreqKeys {
			r.KwFreqCounts[i] = int32(in.kwFreq[k])
		}
	}
	return r
}

// FromRawAccel reconstructs a frozen Instance from its flat view plus the
// prebuilt structures of acc, over arrays whose integrity the caller has
// checksummed (the sections of a snapshot, mapped or read into a private
// buffer). The Raw's and acc's slices are retained (see the immutability
// contract above).
//
// Every check is an allocation-free linear scan. The structural ones keep
// slicing and tree walks panic-free: offset-table monotonicity, index
// bounds and parent pre-order. The content ones hold the stored tag and
// frequency-keyword lists to the ascending order their binary searches
// need. The children lists and the URI→node table are derived, each in
// one pass over Parent or DictID (the latter refusing a URI that names
// two nodes). So a file that passes its checksums but is internally
// inconsistent is refused, never served.
func FromRawAccel(r *Raw, acc *Accel) (*Instance, error) {
	n := len(r.DictID)
	for name, l := range map[string]int{
		"Kind": len(r.Kind), "Parent": len(r.Parent), "Depth": len(r.Depth),
		"DocOf": len(r.DocOf), "NodeName": len(r.NodeName),
		"TotalW": len(r.TotalW), "Comp": len(r.Comp),
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
	d, ont := acc.Dict, acc.Ont
	if d == nil || ont == nil {
		return nil, fmt.Errorf("graph: accel without dictionary or ontology")
	}
	nd := dict.ID(d.Len())
	in := &Instance{
		dict:         d,
		ont:          ont,
		analyzer:     text.Analyzer{Lang: r.Lang, KeepStopwords: r.KeepStopwords},
		dictID:       r.DictID,
		kind:         r.Kind,
		parent:       r.Parent,
		depth:        r.Depth,
		docOf:        r.DocOf,
		kwLazy:       &lazyCSR[dict.ID]{off: acc.KwOff, list: acc.KwList},
		nodeName:     r.NodeName,
		outLazy:      &lazyCSR[Edge]{off: acc.EdgeOff, list: acc.EdgeList},
		totalW:       r.TotalW,
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
		stats:        r.Stats,
	}
	if err := checkCSR(acc.KwOff, n, len(acc.KwList), "content keyword"); err != nil {
		return nil, err
	}
	if err := checkCSR(acc.EdgeOff, n, len(acc.EdgeList), "edge"); err != nil {
		return nil, err
	}
	nDocs := len(r.DocRoots)
	for v := 0; v < n; v++ {
		// Parent pre-order keeps the ancestor walks cycle-free; uint32
		// folds the negative case in.
		if p := r.Parent[v]; p != NoNID && uint32(p) >= uint32(v) {
			return nil, fmt.Errorf("graph: node %d has parent %d out of pre-order", v, p)
		}
	}
	var maxURI, maxName1, maxDoc1, maxComp1 uint32
	for v := 0; v < n; v++ {
		if x := uint32(r.DictID[v]); x > maxURI {
			maxURI = x
		}
		if x := uint32(r.NodeName[v]) + 1; x > maxName1 {
			maxName1 = x
		}
		if x := uint32(r.DocOf[v]) + 1; x > maxDoc1 {
			maxDoc1 = x
		}
		if x := uint32(r.Comp[v]) + 1; x > maxComp1 {
			maxComp1 = x
		}
	}
	if n > 0 {
		if maxURI >= uint32(nd) || maxName1 > uint32(nd) {
			return nil, fmt.Errorf("graph: node URI or name outside dictionary of %d", nd)
		}
		if maxDoc1 > uint32(nDocs) {
			return nil, fmt.Errorf("graph: node document ordinal outside %d documents", nDocs)
		}
		if r.NComp < 0 || maxComp1 > uint32(r.NComp) {
			return nil, fmt.Errorf("graph: node component outside %d components", r.NComp)
		}
	}
	// Branch-free max reductions over the flat lists: uint32(x) folds
	// negatives in, and the +1 bias maps the NoID/NoNID sentinels (-1) to
	// 0, which every bound accepts.
	var maxKw1 uint32
	for _, k := range acc.KwList {
		if v := uint32(k) + 1; v > maxKw1 {
			maxKw1 = v
		}
	}
	if maxKw1 > uint32(nd) {
		return nil, fmt.Errorf("graph: content keyword outside dictionary of %d", nd)
	}
	var maxTo, maxProp1 uint32
	for i := range acc.EdgeList {
		if v := uint32(acc.EdgeList[i].To); v > maxTo {
			maxTo = v
		}
		if v := uint32(acc.EdgeList[i].Prop) + 1; v > maxProp1 {
			maxProp1 = v
		}
	}
	if len(acc.EdgeList) > 0 && (maxTo >= uint32(n) || maxProp1 > uint32(nd)) {
		return nil, fmt.Errorf("graph: edge outside instance of %d nodes / dictionary of %d", n, nd)
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
	var err error
	if in.nidByID, err = nodesByURI(r.DictID, int(nd)); err != nil {
		return nil, err
	}
	in.childOff, in.childList = childrenOf(r.Parent)
	in.matrix, err = sparse.FromRaw(n, r.MatrixRowPtr, r.MatrixCol, r.MatrixVal)
	if err != nil {
		return nil, err
	}
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
