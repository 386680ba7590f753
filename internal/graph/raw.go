package graph

import (
	"fmt"

	"s3/internal/dict"
	"s3/internal/rdf"
	"s3/internal/text"
)

// Raw is the flat, exported view of a frozen Instance: the tables needed
// to reconstruct it without re-running the build pipeline (no ontology
// saturation), each in the form the instance holds it and the snapshot
// serialiser (internal/snap) stores it — per-node lists as CSR offsets
// plus one flat list. It is the contract between the two packages.
//
// It carries the graph, each relation once, and nothing the graph
// determines: FromRaw derives the rest with the code Builder.Build runs
// (see derive) — the user, document-root and tag lists and the depths
// and document ordinals from Kind and Parent, the children lists, the
// URI→node table from DictID, the network out-edges from the social,
// post, comment and tag relations, the normalised transition matrix from
// those edges and the tree, the keyword frequencies from the content
// keywords, the §5.2 component partition from the tree, comment and tag
// edges, and the statistics. The sorted permutations are the derived
// arrays it keeps (DictPerm, TriplePOS): sorts to build, linear scans to
// check. Social, Posts and Comments are kept in the order their spec
// listed them, which the edge lists and the RDF export follow.
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

	// TagInfos describes the KindTag nodes in ascending node order, one
	// entry each. Social, Comments and Posts are the social, comment and
	// authorship edges.
	TagInfos []TagInfo
	Social   []SocialEdge
	Comments []CommentEdge
	Posts    []PostEdge
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
		TagInfos:      in.tagInfos,
		Social:        in.social,
		Comments:      in.comments,
		Posts:         in.posts,
	}
	r.DictArena, r.DictOffs, r.DictPerm = in.dict.Arena()
	r.TriplePOS = in.ont.Pos()
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
// Every check is a linear scan. The structural ones keep slicing and the
// derivations panic-free: offset-table monotonicity and index bounds. The
// content ones hold the stored dictionary and triple permutations to the
// ascending order their binary searches need, triple weights to the range
// the builder accepts, and social edges to Builder.AddSocial's weight
// range (0,1] and distinct ends. The rest is derived as
// Builder.Build derives it (derive), which refuses a node table the
// builder cannot make: a parent out of pre-order, a non-document node
// that nests, an unknown node kind, a URI that names two nodes, a tag
// count other than the tag infos'; a tag, comment or post between nodes
// of kinds the builder would not join (checkEdgeKinds); and a relation
// whose property the dictionary lacks. So a file that passes its
// checksums but is internally inconsistent is refused, never served.
func FromRaw(r *Raw) (*Instance, error) {
	n := len(r.DictID)
	for name, l := range map[string]int{
		"Kind": len(r.Kind), "Parent": len(r.Parent), "NodeName": len(r.NodeName),
	} {
		if l != n {
			return nil, fmt.Errorf("graph: raw table %s has %d entries for %d nodes", name, l, n)
		}
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
		dict:     d,
		ont:      ont,
		analyzer: text.Analyzer{Lang: r.Lang, KeepStopwords: r.KeepStopwords},
		dictID:   r.DictID,
		kind:     r.Kind,
		parent:   r.Parent,
		nodeName: r.NodeName,
		kwOff:    r.KwOff,
		kwList:   r.KwList,
		tagInfos: r.TagInfos,
		social:   r.Social,
		comments: r.Comments,
		posts:    r.Posts,
	}
	if err := checkCSR(r.KwOff, n, len(r.KwList), "content keyword"); err != nil {
		return nil, err
	}
	var maxURI, maxName1 uint32
	for v := 0; v < n; v++ {
		if x := uint32(r.DictID[v]); x > maxURI {
			maxURI = x
		}
		if x := uint32(r.NodeName[v]) + 1; x > maxName1 {
			maxName1 = x
		}
	}
	if n > 0 && (maxURI >= uint32(nd) || maxName1 > uint32(nd)) {
		return nil, fmt.Errorf("graph: node URI or name outside dictionary of %d", nd)
	}
	// Branch-free max reductions over the flat lists: uint32(x) folds
	// negatives in, and the +1 bias maps the NoID sentinel (-1), where a
	// table allows it, to 0, which every bound accepts.
	var maxKw uint32
	for _, k := range r.KwList {
		if v := uint32(k); v > maxKw {
			maxKw = v
		}
	}
	if len(r.KwList) > 0 && maxKw >= uint32(nd) {
		return nil, fmt.Errorf("graph: content keyword outside dictionary of %d", nd)
	}
	for _, e := range r.Social {
		switch {
		case uint32(e.From) >= uint32(n) || uint32(e.To) >= uint32(n) || uint32(e.Prop) >= uint32(nd):
			return nil, fmt.Errorf("graph: social edge outside instance of %d nodes / dictionary of %d", n, nd)
		// The range Builder.AddSocial accepts; NaN fails it too.
		case !(e.W > 0 && e.W <= 1):
			return nil, fmt.Errorf("graph: social edge weight %v outside (0,1]", e.W)
		case e.From == e.To:
			return nil, fmt.Errorf("graph: self social edge on user %d", e.From)
		}
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
		if c.Comment < 0 || int(c.Comment) >= n || c.Target < 0 || int(c.Target) >= n || uint32(c.Prop) >= uint32(nd) {
			return nil, fmt.Errorf("graph: comment edge outside instance of %d nodes / dictionary of %d", n, nd)
		}
	}
	for _, p := range r.Posts {
		if p.Doc < 0 || int(p.Doc) >= n || p.User < 0 || int(p.User) >= n {
			return nil, fmt.Errorf("graph: post edge outside instance of %d nodes", n)
		}
	}
	if err := in.derive(); err != nil {
		return nil, err
	}
	return in, nil
}

// checkEdgeKinds refuses a social edge, tag, comment or post whose
// endpoints are of kinds the builder would not join (Builder.AddSocial,
// AddTag, AddComment, AddPost): a social edge joins two users;
// a tag's subject must be a document node or a tag and its author a user;
// a comment must be a document root, its target a document node of
// another document; a post joins a document node to a user. It reads the
// derived document ordinals, so derive runs it after deriveTree, and
// before the edges those relations make are derived.
func (in *Instance) checkEdgeKinds() error {
	for _, e := range in.social {
		if in.kind[e.From] != KindUser || in.kind[e.To] != KindUser {
			return fmt.Errorf("graph: social edge %d → %d joins a %s and a %s, not two users", e.From, e.To, in.kind[e.From], in.kind[e.To])
		}
	}
	for i, ti := range in.tagInfos {
		if k := in.kind[ti.Subject]; k != KindDocNode && k != KindTag {
			return fmt.Errorf("graph: tag %d has a %s subject %d, not a document node or tag", in.tagList[i], k, ti.Subject)
		}
		if k := in.kind[ti.Author]; k != KindUser {
			return fmt.Errorf("graph: tag %d has a %s author %d, not a user", in.tagList[i], k, ti.Author)
		}
	}
	for _, c := range in.comments {
		switch {
		case in.kind[c.Comment] != KindDocNode || in.parent[c.Comment] != NoNID:
			return fmt.Errorf("graph: comment %d is not a document root", c.Comment)
		case in.kind[c.Target] != KindDocNode:
			return fmt.Errorf("graph: comment %d has a %s target %d, not a document node", c.Comment, in.kind[c.Target], c.Target)
		case in.docOf[c.Target] == in.docOf[c.Comment]:
			return fmt.Errorf("graph: document %d comments on its own node %d", c.Comment, c.Target)
		}
	}
	for _, p := range in.posts {
		if k := in.kind[p.Doc]; k != KindDocNode {
			return fmt.Errorf("graph: post of a %s %d, not a document node", k, p.Doc)
		}
		if k := in.kind[p.User]; k != KindUser {
			return fmt.Errorf("graph: post of %d by a %s %d, not a user", p.Doc, k, p.User)
		}
	}
	return nil
}

// derive computes every table an instance holds beyond the stored ones,
// for Builder.Build and FromRaw alike, so it is the one place each of them
// is assigned: the node lists, depths and document ordinals (deriveTree),
// the URI→node table, the children lists, the users' network out-edges
// (deriveEdges, keepUserEdges), the transition matrix (buildMatrix), the
// keyword frequencies, the component partition and the statistics. It
// refuses what the builder cannot make (see deriveTree, checkEdgeKinds
// and deriveEdges), and a tag count other than the number of tag infos.
func (in *Instance) derive() error {
	if err := in.deriveTree(); err != nil {
		return err
	}
	if len(in.tagInfos) != len(in.tagList) {
		return fmt.Errorf("graph: %d tag infos for %d tag nodes", len(in.tagInfos), len(in.tagList))
	}
	if err := in.checkEdgeKinds(); err != nil {
		return err
	}
	var err error
	if in.nidByID, err = nodesByURI(in.dictID, in.dict.Len()); err != nil {
		return err
	}
	in.childOff, in.childList = childrenOf(in.parent)
	off, list, err := in.deriveEdges()
	if err != nil {
		return err
	}
	in.buildMatrix(off, list)
	in.keepUserEdges(off, list)
	in.countKeywords()
	in.buildComponents()
	in.computeStats(len(list))
	return nil
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

// deriveTree derives, in one ascending pass over the kind and parent
// tables, the user, document-root and tag lists (each in ascending node
// order, the order Builder.Build numbers them in) and each node's depth
// and document ordinal (its document's index among the roots, -1 outside
// documents). The parent table must be in pre-order (every parent below
// its child), so a parent's values are known before its children's, and
// only document nodes nest; a table that breaks either, or names a kind
// the builder does not make, is refused.
func (in *Instance) deriveTree() error {
	n := len(in.parent)
	in.depth = make([]int32, n)
	in.docOf = make([]int32, n)
	for v, p := range in.parent {
		k := in.kind[v]
		switch {
		case p == NoNID:
			in.docOf[v] = -1
			switch k {
			case KindUser:
				in.users = append(in.users, NID(v))
			case KindDocNode:
				in.docOf[v] = int32(len(in.docRoots))
				in.docRoots = append(in.docRoots, NID(v))
			case KindTag:
				in.tagList = append(in.tagList, NID(v))
			default:
				return fmt.Errorf("graph: node %d has unknown kind %d", v, uint8(k))
			}
		// Pre-order keeps the ancestor walks cycle-free; uint32 folds the
		// negative case in.
		case uint32(p) >= uint32(v):
			return fmt.Errorf("graph: node %d has parent %d out of pre-order", v, p)
		case k != KindDocNode || in.kind[p] != KindDocNode:
			return fmt.Errorf("graph: %s node %d has a %s parent %d; only document nodes nest", k, v, in.kind[p], p)
		default:
			in.depth[v] = in.depth[p] + 1
			in.docOf[v] = in.docOf[p]
		}
	}
	return nil
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
