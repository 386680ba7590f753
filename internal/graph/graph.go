// Package graph assembles the full S3 instance of the paper (§2): users,
// structured documents, tags and the semantic layer, woven into a single
// weighted graph. It materialises the network edges (§2.5), the
// vertical-neighbourhood-aware normalised transition matrix used for social
// paths, and the connected components over partOf / commentsOn / hasSubject
// edges that the implementation section (§5.2) uses for pruning.
package graph

import (
	"fmt"
	"slices"

	"s3/internal/dict"
	"s3/internal/rdf"
	"s3/internal/sparse"
	"s3/internal/text"
)

// The S3 namespace (Table 2 of the paper).
const (
	ClassUser      = "S3:user"
	ClassDoc       = "S3:doc"
	ClassRelatedTo = "S3:relatedTo"

	PropSocial     = "S3:social"
	PropPostedBy   = "S3:postedBy"
	PropCommentsOn = "S3:commentsOn"
	PropPartOf     = "S3:partOf"
	PropContains   = "S3:contains"
	PropNodeName   = "S3:nodeName"
	PropHasSubject = "S3:hasSubject"
	PropHasKeyword = "S3:hasKeyword"
	PropHasAuthor  = "S3:hasAuthor"
)

// Inverse properties (the paper's syntactic sugar p̄: s p̄ o ∈ I iff o p s ∈ I).
const (
	PropPostedByInv   = "S3:inv:postedBy"
	PropCommentsOnInv = "S3:inv:commentsOn"
	PropHasSubjectInv = "S3:inv:hasSubject"
	PropHasAuthorInv  = "S3:inv:hasAuthor"
)

// NID is a dense index for instance nodes (users, document nodes, tags).
// It is distinct from dict.ID, which also numbers keywords and properties.
type NID int32

// NoNID marks "no node" (e.g. the parent of a root).
const NoNID NID = -1

// NodeKind discriminates instance nodes.
type NodeKind uint8

const (
	// KindUser is a social-network user (class S3:user).
	KindUser NodeKind = iota
	// KindDocNode is a document node; the fragment it roots is a potential
	// query answer (class S3:doc).
	KindDocNode
	// KindTag is a tag/annotation resource (class S3:relatedTo).
	KindTag
)

func (k NodeKind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindDocNode:
		return "doc"
	case KindTag:
		return "tag"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Edge is one directed network edge with its raw (un-normalised) weight,
// as OutEdges lists it. Edges are derived from the stored relations
// (derive), never stored themselves.
type Edge struct {
	To   NID
	Prop dict.ID
	W    float64
}

// SocialEdge is one weighted social edge between two users, through
// S3:social or a sub-property of it. Field order is part of the snapshot
// ABI: it is laid out like rdf.Triple — (From, To, Prop) in bytes 0–11,
// bytes 12–15 padding, W in 16–23 — so an aligned on-disk array can be
// reinterpreted as []SocialEdge without copying (internal/snap).
type SocialEdge struct {
	From, To NID
	Prop     dict.ID
	W        float64
}

// TagInfo describes a tag resource.
type TagInfo struct {
	Subject NID
	Author  NID
	// Keyword is the stemmed tag keyword, or dict.NoID for a keyword-less
	// endorsement (like / retweet / +1, §2.4).
	Keyword dict.ID
	// Type is the tag's RDF class (ClassRelatedTo or a subclass).
	Type dict.ID
}

// CommentEdge records that document Comment comments on node Target
// (possibly through a sub-property of S3:commentsOn).
type CommentEdge struct {
	Comment NID
	Target  NID
	Prop    dict.ID
}

// PostEdge records that document node Doc was posted by User.
type PostEdge struct {
	Doc  NID
	User NID
}

// Instance is a frozen, queryable S3 instance. It is immutable after Build
// and safe for concurrent readers. It holds the same tables whether it was
// built or loaded: the ones a snapshot stores, in the form it stores them
// (see Raw), plus what the graph determines — the node lists, depths and
// document ordinals, children lists, the URI→node table, the users'
// network out-edges, the transition matrix, the keyword frequencies, the
// component partition and the statistics — derived by the same code
// either way (derive).
type Instance struct {
	dict     *dict.Dict
	ont      *rdf.Ontology
	analyzer text.Analyzer

	// Node tables, indexed by NID.
	dictID   []dict.ID
	kind     []NodeKind
	parent   []NID
	depth    []int32   // derived from parent (deriveTree)
	docOf    []int32   // document index for doc nodes, -1 otherwise (deriveTree)
	nodeName []dict.ID // node name (doc nodes), dict.NoID otherwise

	// Stemmed content keywords (doc nodes) in CSR form: those of v are
	// kwList[kwOff[v]:kwOff[v+1]].
	kwOff  []int64
	kwList []dict.ID

	// Tree children, derived from parent (childrenOf): those of v are
	// childList[childOff[v]:childOff[v+1]], ascending.
	childOff  []int32
	childList []NID

	// URI → node resolution: a dense table indexed by dict.ID holding the
	// node plus one, 0 where the id names no node (nodesByURI).
	nidByID []NID

	// The users' direct network out-edges in CSR form (deriveEdges,
	// keepUserEdges): those of v are edgeList[edgeOff[v]:edgeOff[v+1]],
	// empty for every node that is not a user.
	edgeOff  []int64
	edgeList []Edge

	matrix *sparse.Matrix // buildMatrix

	comp  []int32 // buildComponents
	nComp int

	// Users, document roots and tags, each ascending (deriveTree), and the
	// tags' descriptions aligned with them.
	users    []NID
	docRoots []NID
	tagList  []NID
	tagInfos []TagInfo
	social   []SocialEdge // in spec order
	comments []CommentEdge
	posts    []PostEdge

	// Per-keyword document frequency (number of document nodes whose
	// content contains the stemmed keyword): two parallel slices ascending
	// by keyword, binary-searched (countKeywords).
	kwFreqKeys   []dict.ID
	kwFreqCounts []int32

	stats Stats // computeStats
}

// Dict returns the shared dictionary.
func (in *Instance) Dict() *dict.Dict { return in.dict }

// Ontology returns the saturated RDF layer (schema + entity triples) in
// sorted form.
func (in *Instance) Ontology() *rdf.Ontology { return in.ont }

// Analyzer returns the text analyzer the instance was built with.
func (in *Instance) Analyzer() text.Analyzer { return in.analyzer }

// NumNodes returns the number of instance nodes (users + doc nodes + tags).
func (in *Instance) NumNodes() int { return len(in.dictID) }

// NIDOf resolves a URI to its node.
func (in *Instance) NIDOf(uri string) (NID, bool) {
	id, ok := in.dict.Lookup(uri)
	if !ok || int(id) >= len(in.nidByID) { // the latter: interned after the freeze (e.g. RDF export)
		return NoNID, false
	}
	n := in.nidByID[id] - 1
	return n, n != NoNID
}

// URIOf returns the URI of a node.
func (in *Instance) URIOf(n NID) string { return in.dict.String(in.dictID[n]) }

// KindOf returns the node kind.
func (in *Instance) KindOf(n NID) NodeKind { return in.kind[n] }

// ParentOf returns the tree parent of a document node (NoNID for roots and
// non-document nodes).
func (in *Instance) ParentOf(n NID) NID { return in.parent[n] }

// DepthOf returns the tree depth of a document node (0 for roots, users
// and tags).
func (in *Instance) DepthOf(n NID) int32 { return in.depth[n] }

// ChildrenOf returns the tree children of a document node.
func (in *Instance) ChildrenOf(n NID) []NID {
	lo, hi := in.childOff[n], in.childOff[n+1]
	return in.childList[lo:hi:hi]
}

// DocRootOf returns the root of the document a node belongs to, or NoNID
// for users and tags.
func (in *Instance) DocRootOf(n NID) NID {
	if in.docOf[n] < 0 {
		return NoNID
	}
	return in.docRoots[in.docOf[n]]
}

// KeywordsOf returns the stemmed content keywords of a document node.
func (in *Instance) KeywordsOf(n NID) []dict.ID {
	lo, hi := in.kwOff[n], in.kwOff[n+1]
	return in.kwList[lo:hi:hi]
}

// Users returns all user nodes.
func (in *Instance) Users() []NID { return in.users }

// DocRoots returns the roots of all documents.
func (in *Instance) DocRoots() []NID { return in.docRoots }

// Tags returns all tag nodes.
func (in *Instance) Tags() []NID { return in.tagList }

// TagInfoOf returns the description of a tag node.
func (in *Instance) TagInfoOf(n NID) (TagInfo, bool) {
	i, ok := slices.BinarySearch(in.tagList, n)
	if !ok {
		return TagInfo{}, false
	}
	return in.tagInfos[i], true
}

// Comments returns all comment edges.
func (in *Instance) Comments() []CommentEdge { return in.comments }

// Posts returns all authorship edges.
func (in *Instance) Posts() []PostEdge { return in.posts }

// OutEdges returns the direct network out-edges of a user (without the
// vertical-neighbourhood extension), in the order derive lists them: its
// social edges in stored order, then a postedByInv edge per post and a
// hasAuthorInv edge per tag it authored. It is empty for every other
// node: the instance keeps only the users' rows, the only ones read once
// the matrix is built.
func (in *Instance) OutEdges(n NID) []Edge {
	lo, hi := in.edgeOff[n], in.edgeOff[n+1]
	return in.edgeList[lo:hi:hi]
}

// Matrix returns the normalised transition matrix M over nodes:
// M[v][t] = Σ e.w / W(v) over network edges e = (m → t) with m a vertical
// neighbour of v, where W(v) is the total out-weight of v's vertical
// neighbourhood (§2.5 path normalisation).
func (in *Instance) Matrix() *sparse.Matrix { return in.matrix }

// CompOf returns the component id of a document node or tag (-1 for
// users). Components are the equivalence classes of the reachability
// relation over partOf, commentsOn and hasSubject edges (§5.2).
func (in *Instance) CompOf(n NID) int32 { return in.comp[n] }

// NumComponents returns the number of components.
func (in *Instance) NumComponents() int { return in.nComp }

// KeywordFrequency returns, for a stemmed keyword, the number of
// document nodes whose content contains it.
func (in *Instance) KeywordFrequency(k dict.ID) int {
	if i, ok := slices.BinarySearch(in.kwFreqKeys, k); ok {
		return int(in.kwFreqCounts[i])
	}
	return 0
}

// IsAncestorOrSelf reports whether a is an ancestor of b or equal to it,
// within the same document tree.
func (in *Instance) IsAncestorOrSelf(a, b NID) bool {
	if in.kind[a] != KindDocNode || in.kind[b] != KindDocNode {
		return a == b
	}
	if in.docOf[a] != in.docOf[b] {
		return false
	}
	da, db := in.depth[a], in.depth[b]
	if da > db {
		return false
	}
	for b != NoNID && db > da {
		b = in.parent[b]
		db--
	}
	return a == b
}

// VerticalNeighbors reports whether a and b are vertical neighbours or
// equal (Definition 2.2: one is a fragment of the other).
func (in *Instance) VerticalNeighbors(a, b NID) bool {
	return in.IsAncestorOrSelf(a, b) || in.IsAncestorOrSelf(b, a)
}

// PosLen returns |pos(d, f)| = depth(f) − depth(d) if f ∈ Frag(d).
func (in *Instance) PosLen(d, f NID) (int32, bool) {
	if !in.IsAncestorOrSelf(d, f) {
		return 0, false
	}
	return in.depth[f] - in.depth[d], true
}

// SubtreeOf appends to buf all nodes of the fragment rooted at n
// (pre-order) and returns the extended slice.
func (in *Instance) SubtreeOf(n NID, buf []NID) []NID {
	buf = append(buf, n)
	for _, c := range in.ChildrenOf(n) {
		buf = in.SubtreeOf(c, buf)
	}
	return buf
}

// Stats returns the instance statistics (Figure 4).
func (in *Instance) Stats() Stats { return in.stats }
