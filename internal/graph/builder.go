package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"s3/internal/dict"
	"s3/internal/doc"
	"s3/internal/rdf"
	"s3/internal/sparse"
	"s3/internal/text"
)

// Spec is a declarative, serialisable description of an S3 instance: the
// exact content a social application would feed the system. Dataset
// generators produce Specs; Build turns a Spec into a queryable Instance.
type Spec struct {
	// Ontology lists weight-1 RDF triples (schema and entity facts).
	Ontology [][3]string
	Users    []string
	Social   []SocialSpec
	// Docs holds document trees; each is finalised with doc.New at build
	// time, so only URI/Name/Text/Children need to be populated.
	Docs     []*doc.Node
	Posts    []PostSpec
	Comments []CommentSpec
	Tags     []TagSpec
}

// SocialSpec is one weighted social edge. Prop may name a sub-property of
// S3:social (e.g. "vdk:follow", "yelp:friend"); empty means S3:social.
type SocialSpec struct {
	From, To string
	W        float64
	Prop     string
}

// PostSpec states that document node Doc was posted by User.
type PostSpec struct{ Doc, User string }

// CommentSpec states that document Comment comments on node Target. Prop
// may name a sub-property of S3:commentsOn (e.g. "tw:repliesTo").
type CommentSpec struct{ Comment, Target, Prop string }

// TagSpec declares a tag resource. Keyword == "" makes it a keyword-less
// endorsement. Type may name a subclass of S3:relatedTo (e.g.
// "NLP:recognize").
type TagSpec struct{ URI, Subject, Author, Keyword, Type string }

// Builder incrementally assembles and validates a Spec, then freezes it
// into an Instance. Builders are single-goroutine objects.
type Builder struct {
	spec     Spec
	analyzer text.Analyzer

	userSet map[string]struct{}
	nodeURI map[string]NodeKind // all instance node URIs
	docSet  map[string]int      // doc root URI → index in spec.Docs
	docs    []*doc.Document     // finalised trees, same order as spec.Docs
}

// NewBuilder returns a builder using the given text analyzer for document
// content and tag keywords.
func NewBuilder(analyzer text.Analyzer) *Builder {
	return &Builder{
		analyzer: analyzer,
		userSet:  make(map[string]struct{}),
		nodeURI:  make(map[string]NodeKind),
		docSet:   make(map[string]int),
	}
}

// AddOntologyTriple records a weight-1 RDF statement (schema or fact).
func (b *Builder) AddOntologyTriple(s, p, o string) {
	b.spec.Ontology = append(b.spec.Ontology, [3]string{s, p, o})
}

// AddUser registers a user URI. Adding the same user twice is a no-op.
func (b *Builder) AddUser(uri string) error {
	if uri == "" {
		return fmt.Errorf("graph: empty user URI")
	}
	if _, dup := b.userSet[uri]; dup {
		return nil
	}
	if k, taken := b.nodeURI[uri]; taken {
		return fmt.Errorf("graph: URI %q already used by a %s", uri, k)
	}
	b.userSet[uri] = struct{}{}
	b.nodeURI[uri] = KindUser
	b.spec.Users = append(b.spec.Users, uri)
	return nil
}

// AddSocial records a weighted social edge between two existing users,
// optionally through a named sub-property of S3:social (the sub-property
// fact is added to the ontology automatically).
func (b *Builder) AddSocial(from, to string, w float64, prop string) error {
	if _, ok := b.userSet[from]; !ok {
		return fmt.Errorf("graph: social edge from unknown user %q", from)
	}
	if _, ok := b.userSet[to]; !ok {
		return fmt.Errorf("graph: social edge to unknown user %q", to)
	}
	if from == to {
		return fmt.Errorf("graph: self social edge on %q", from)
	}
	if !(w > 0 && w <= 1) {
		return fmt.Errorf("graph: social weight %v outside (0,1]", w)
	}
	if prop != "" && prop != PropSocial {
		b.AddOntologyTriple(prop, rdf.SubPropertyOfURI, PropSocial)
	}
	b.spec.Social = append(b.spec.Social, SocialSpec{From: from, To: to, W: w, Prop: prop})
	return nil
}

// AddDocument finalises and registers a document tree. Node keyword sets
// are computed from Text with the builder's analyzer unless already set.
func (b *Builder) AddDocument(root *doc.Node) error {
	d, err := doc.New(root)
	if err != nil {
		return err
	}
	if _, dup := b.docSet[d.URI()]; dup {
		return fmt.Errorf("graph: duplicate document %q", d.URI())
	}
	for _, n := range d.Nodes() {
		if k, taken := b.nodeURI[n.URI]; taken {
			return fmt.Errorf("graph: node URI %q already used by a %s", n.URI, k)
		}
	}
	for _, n := range d.Nodes() {
		b.nodeURI[n.URI] = KindDocNode
		if n.Keywords == nil && n.Text != "" {
			n.Keywords = b.analyzer.Keywords(n.Text)
		}
	}
	b.docSet[d.URI()] = len(b.spec.Docs)
	b.spec.Docs = append(b.spec.Docs, root)
	b.docs = append(b.docs, d)
	return nil
}

// AddPost records that an existing document node was posted by an existing
// user.
func (b *Builder) AddPost(docNode, user string) error {
	if b.nodeURI[docNode] != KindDocNode {
		return fmt.Errorf("graph: post of unknown document node %q", docNode)
	}
	if _, ok := b.userSet[user]; !ok {
		return fmt.Errorf("graph: post by unknown user %q", user)
	}
	b.spec.Posts = append(b.spec.Posts, PostSpec{Doc: docNode, User: user})
	return nil
}

// AddComment records that document comment comments on node target,
// optionally through a sub-property of S3:commentsOn.
func (b *Builder) AddComment(comment, target, prop string) error {
	ci, ok := b.docSet[comment]
	if !ok {
		return fmt.Errorf("graph: comment %q is not a registered document root", comment)
	}
	if b.nodeURI[target] != KindDocNode {
		return fmt.Errorf("graph: comment target %q is not a document node", target)
	}
	if _, inSelf := b.docs[ci].Node(target); inSelf {
		return fmt.Errorf("graph: document %q cannot comment on its own node %q", comment, target)
	}
	if prop != "" && prop != PropCommentsOn {
		b.AddOntologyTriple(prop, rdf.SubPropertyOfURI, PropCommentsOn)
	}
	b.spec.Comments = append(b.spec.Comments, CommentSpec{Comment: comment, Target: target, Prop: prop})
	return nil
}

// AddTag declares a tag by author on subject (a document node or an
// earlier tag — the latter gives the higher-level annotations of R4).
// keyword == "" declares an endorsement. typ may name a subclass of
// S3:relatedTo.
func (b *Builder) AddTag(uri, subject, author, keyword, typ string) error {
	if uri == "" {
		return fmt.Errorf("graph: empty tag URI")
	}
	if k, taken := b.nodeURI[uri]; taken {
		return fmt.Errorf("graph: URI %q already used by a %s", uri, k)
	}
	if k, ok := b.nodeURI[subject]; !ok || (k != KindDocNode && k != KindTag) {
		return fmt.Errorf("graph: tag subject %q is not a document node or tag", subject)
	}
	if _, ok := b.userSet[author]; !ok {
		return fmt.Errorf("graph: tag author %q is not a user", author)
	}
	if typ != "" && typ != ClassRelatedTo {
		b.AddOntologyTriple(typ, rdf.SubClassOfURI, ClassRelatedTo)
	}
	b.nodeURI[uri] = KindTag
	b.spec.Tags = append(b.spec.Tags, TagSpec{URI: uri, Subject: subject, Author: author, Keyword: keyword, Type: typ})
	return nil
}

// Spec returns a copy of the accumulated specification.
func (b *Builder) Spec() Spec { return b.spec }

// BuildSpec validates and freezes a Spec into an Instance in one call.
func BuildSpec(spec Spec, analyzer text.Analyzer) (*Instance, error) {
	b := NewBuilder(analyzer)
	for _, t := range spec.Ontology {
		b.AddOntologyTriple(t[0], t[1], t[2])
	}
	for _, u := range spec.Users {
		if err := b.AddUser(u); err != nil {
			return nil, err
		}
	}
	for _, s := range spec.Social {
		if err := b.AddSocial(s.From, s.To, s.W, s.Prop); err != nil {
			return nil, err
		}
	}
	for _, d := range spec.Docs {
		if err := b.AddDocument(d); err != nil {
			return nil, err
		}
	}
	for _, p := range spec.Posts {
		if err := b.AddPost(p.Doc, p.User); err != nil {
			return nil, err
		}
	}
	for _, c := range spec.Comments {
		if err := b.AddComment(c.Comment, c.Target, c.Prop); err != nil {
			return nil, err
		}
	}
	for _, t := range spec.Tags {
		if err := b.AddTag(t.URI, t.Subject, t.Author, t.Keyword, t.Type); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Build freezes the builder into an immutable Instance: it saturates the
// ontology, assigns dense node ids (users, then document nodes in
// pre-order, then tags), records the social, post, comment and tag
// relations, freezes the dictionary and the ontology into their sorted
// forms, and derives, through the derivation FromRaw runs too (derive),
// the node lists, the network edges with their inverses, the normalised
// transition matrix, the keyword frequencies, the component partition and
// the instance statistics.
func (b *Builder) Build() (*Instance, error) {
	d := dict.New()
	ont := rdf.New(d)
	for _, t := range b.spec.Ontology {
		ont.Add(t[0], t[1], t[2])
	}
	// The schema of the S3 namespace itself (§2.3).
	ont.Add(PropPartOf, rdf.DomainURI, ClassDoc)
	ont.Add(PropPartOf, rdf.RangeURI, ClassDoc)
	ont.Add(PropContains, rdf.DomainURI, ClassDoc)
	ont.Add(PropNodeName, rdf.DomainURI, ClassDoc)
	ont.Saturate()

	in := &Instance{analyzer: b.analyzer}

	// Per-node keyword lists are gathered in a local and frozen into CSR
	// form once complete.
	var keywords [][]dict.ID
	nidOf := make(map[dict.ID]NID)
	addNode := func(uri string, kind NodeKind) NID {
		id := d.Intern(uri)
		n := NID(len(in.dictID))
		nidOf[id] = n
		in.dictID = append(in.dictID, id)
		in.kind = append(in.kind, kind)
		in.parent = append(in.parent, NoNID)
		in.nodeName = append(in.nodeName, dict.NoID)
		keywords = append(keywords, nil)
		return n
	}

	for _, uri := range b.spec.Users {
		addNode(uri, KindUser)
	}
	for _, dd := range b.docs {
		for _, node := range dd.Nodes() {
			n := addNode(node.URI, KindDocNode)
			in.nodeName[n] = d.Intern(node.Name)
			for _, kw := range node.Keywords {
				keywords[n] = append(keywords[n], d.Intern(kw))
			}
			if p := node.Parent(); p != nil {
				in.parent[n] = nidOf[mustLookup(d, p.URI)]
			}
		}
	}
	// Tags are numbered after every user and document node, in order, so
	// tag info i describes the i-th tag node.
	for _, t := range b.spec.Tags {
		addNode(t.URI, KindTag)
		subj := nidOf[mustLookup(d, t.Subject)]
		auth := nidOf[mustLookup(d, t.Author)]
		kw := dict.NoID
		if t.Keyword != "" {
			kw = d.Intern(stemKeyword(b.analyzer, t.Keyword))
		}
		typ := ClassRelatedTo
		if t.Type != "" {
			typ = t.Type
		}
		in.tagInfos = append(in.tagInfos, TagInfo{Subject: subj, Author: auth, Keyword: kw, Type: d.Intern(typ)})
	}
	in.kwOff, in.kwList = flatten(keywords)

	// The relations the network edges (§2.5) are derived from (derive).
	// Each edge property is interned in the order deriveEdges lists the
	// edges, which fixes its dictionary id.
	for _, s := range b.spec.Social {
		prop := s.Prop
		if prop == "" {
			prop = PropSocial
		}
		from := nidOf[mustLookup(d, s.From)]
		to := nidOf[mustLookup(d, s.To)]
		in.social = append(in.social, SocialEdge{From: from, To: to, Prop: d.Intern(prop), W: s.W})
	}
	for _, p := range b.spec.Posts {
		d.Intern(PropPostedBy)
		d.Intern(PropPostedByInv)
		in.posts = append(in.posts, PostEdge{Doc: nidOf[mustLookup(d, p.Doc)], User: nidOf[mustLookup(d, p.User)]})
	}
	for _, c := range b.spec.Comments {
		prop := c.Prop
		if prop == "" {
			prop = PropCommentsOn
		}
		cn := nidOf[mustLookup(d, c.Comment)]
		tn := nidOf[mustLookup(d, c.Target)]
		pid := d.Intern(prop)
		d.Intern(PropCommentsOnInv)
		in.comments = append(in.comments, CommentEdge{Comment: cn, Target: tn, Prop: pid})
	}
	if len(in.tagInfos) > 0 {
		for _, prop := range []string{PropHasSubject, PropHasSubjectInv, PropHasAuthor, PropHasAuthorInv} {
			d.Intern(prop)
		}
	}

	// Nothing is interned from here on: the dictionary and the ontology
	// freeze into the sorted forms a snapshot stores and a loaded
	// instance holds.
	in.dict = d.Freeze()
	var err error
	if in.ont, err = rdf.FromTriplesFrozen(in.dict, ont.Triples(), rdf.TriplePOS(ont.Triples())); err != nil {
		return nil, err
	}
	if err := in.derive(); err != nil {
		return nil, err
	}
	return in, nil
}

func mustLookup(d *dict.Dict, uri string) dict.ID {
	id, ok := d.Lookup(uri)
	if !ok {
		panic(fmt.Sprintf("graph: internal error: URI %q not interned", uri))
	}
	return id
}

// stemKeyword runs a tag keyword through the same pipeline as document
// content so that tag and content keywords live in one vocabulary.
func stemKeyword(a text.Analyzer, kw string) string {
	if ks := a.Keywords(kw); len(ks) > 0 {
		return ks[0]
	}
	return kw
}

// deriveEdges derives the network edges (§2.5) from the stored relations:
// each social edge, then for each post, comment and tag its postedBy,
// commentsOn, hasSubject and hasAuthor edges, each followed by its
// inverse. A node's out-edges are listed in that order, the order every
// float sum over them (W(v), the matrix) takes. They are laid out in CSR
// form by a counting pass and a placing pass over the one sequence: those
// of v are list[off[v]:off[v+1]]. A dictionary that lacks a property a
// stored relation needs is refused.
func (in *Instance) deriveEdges() (off []int64, list []Edge, err error) {
	var missing string
	prop := func(uri string, uses int) dict.ID {
		id, ok := in.dict.Lookup(uri)
		if !ok && uses > 0 {
			missing = uri
		}
		return id
	}
	postedBy, postedByInv := prop(PropPostedBy, len(in.posts)), prop(PropPostedByInv, len(in.posts))
	commentsOnInv := prop(PropCommentsOnInv, len(in.comments))
	nt := len(in.tagInfos)
	hasSubject, hasSubjectInv := prop(PropHasSubject, nt), prop(PropHasSubjectInv, nt)
	hasAuthor, hasAuthorInv := prop(PropHasAuthor, nt), prop(PropHasAuthorInv, nt)
	if missing != "" {
		return nil, nil, fmt.Errorf("graph: the dictionary lacks %s, which a stored relation needs", missing)
	}
	each := func(addEdge func(from, to NID, w float64, prop dict.ID)) {
		for _, s := range in.social {
			addEdge(s.From, s.To, s.W, s.Prop)
		}
		for _, p := range in.posts {
			addEdge(p.Doc, p.User, 1, postedBy)
			addEdge(p.User, p.Doc, 1, postedByInv)
		}
		for _, c := range in.comments {
			addEdge(c.Comment, c.Target, 1, c.Prop)
			addEdge(c.Target, c.Comment, 1, commentsOnInv)
		}
		for i, ti := range in.tagInfos {
			t := in.tagList[i]
			addEdge(t, ti.Subject, 1, hasSubject)
			addEdge(ti.Subject, t, 1, hasSubjectInv)
			addEdge(t, ti.Author, 1, hasAuthor)
			addEdge(ti.Author, t, 1, hasAuthorInv)
		}
	}
	// As in childrenOf: counted at from+2 and summed, off[from+1] is where
	// from's edges start, and it advances as they are placed.
	n := len(in.dictID)
	off = make([]int64, n+2)
	each(func(from, _ NID, _ float64, _ dict.ID) { off[from+2]++ })
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	list = make([]Edge, off[n+1])
	each(func(from, to NID, w float64, prop dict.ID) {
		list[off[from+1]] = Edge{To: to, Prop: prop, W: w}
		off[from+1]++
	})
	return off[:n+1], list, nil
}

// keepUserEdges keeps the users' rows of the edge CSR (off, list) as the
// instance's out-edges: past derive nothing reads another node's.
func (in *Instance) keepUserEdges(off []int64, list []Edge) {
	uoff := make([]int64, len(off))
	for v, k := range in.kind {
		uoff[v+1] = uoff[v]
		if k == KindUser {
			uoff[v+1] += off[v+1] - off[v]
		}
	}
	ulist := make([]Edge, uoff[len(in.kind)])
	for _, u := range in.users {
		copy(ulist[uoff[u]:], list[off[u]:off[u+1]])
	}
	in.edgeOff, in.edgeList = uoff, ulist
}

// neighborhoodOutWeights returns W(v) for every node v: the total
// out-weight of v's vertical neighbourhood (§2.5) — v's own out-edges, its
// subtree's and its ancestors' for a document node, its own otherwise —
// from the full edge CSR deriveEdges returns.
func (in *Instance) neighborhoodOutWeights(off []int64, list []Edge) []float64 {
	n := len(in.dictID)
	ownW := make([]float64, n)
	for v := range ownW {
		for _, e := range list[off[v]:off[v+1]] {
			ownW[v] += e.W
		}
	}
	// subW[v] = Σ ownW over v's subtree (doc nodes; ownW for the rest).
	subW := make([]float64, n)
	var subtreeWeight func(v NID) float64
	subtreeWeight = func(v NID) float64 {
		w := ownW[v]
		for _, c := range in.ChildrenOf(v) {
			w += subtreeWeight(c)
		}
		subW[v] = w
		return w
	}
	for v := 0; v < n; v++ {
		if in.kind[v] == KindDocNode && in.parent[v] == NoNID {
			subtreeWeight(NID(v))
		} else if in.kind[v] != KindDocNode {
			subW[v] = ownW[v]
		}
	}
	// Adding the ancestors' own out-weights turns subW[v] into W(v).
	for v := 0; v < n; v++ {
		for p := in.parent[v]; p != NoNID; p = in.parent[p] {
			subW[v] += ownW[p]
		}
	}
	return subW
}

// buildMatrix materialises the normalised transition matrix (§2.5). For a
// node v, the walk may leave from any vertical neighbour m of v; the edge
// (m → t, w) contributes w / W(v) to M[v][t], with W(v) the total
// out-weight of the neighbourhood. It reads the full edge CSR deriveEdges
// returns, and adds the rows in ascending order, as sparse.Builder takes
// them, after a counting pass over the same neighbourhoods that sizes the
// builder's CSR.
func (in *Instance) buildMatrix(off []int64, list []Edge) {
	n := len(in.dictID)
	totalW := in.neighborhoodOutWeights(off, list)
	var members []NID
	each := func(visit func(v int, members []NID)) {
		for v := 0; v < n; v++ {
			if totalW[v] == 0 {
				continue
			}
			members = members[:0]
			if in.kind[v] == KindDocNode {
				members = in.SubtreeOf(NID(v), members)
				for p := in.parent[v]; p != NoNID; p = in.parent[p] {
					members = append(members, p)
				}
			} else {
				members = append(members, NID(v))
			}
			visit(v, members)
		}
	}
	adds := 0
	each(func(_ int, members []NID) {
		for _, m := range members {
			adds += int(off[m+1] - off[m])
		}
	})
	bld := sparse.NewBuilder(n)
	bld.Grow(adds)
	each(func(v int, members []NID) {
		for _, m := range members {
			for _, e := range list[off[m]:off[m+1]] {
				bld.Add(v, int(e.To), e.W/totalW[v])
			}
		}
	})
	in.matrix = bld.Build()
}

// buildComponents partitions document nodes and tags into the §5.2
// components: the connected components over partOf (the document trees),
// commentsOn and hasSubject edges. Components are numbered in the order
// of their lowest node.
func (in *Instance) buildComponents() {
	n := len(in.dictID)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b NID) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	for v := 0; v < n; v++ {
		if in.parent[v] != NoNID {
			union(NID(v), in.parent[v])
		}
	}
	for _, c := range in.comments {
		union(c.Comment, c.Target)
	}
	for i, t := range in.tagList {
		union(t, in.tagInfos[i].Subject)
	}

	in.comp = make([]int32, n)
	rootComp := make([]int32, n) // a root's component plus one, 0 until numbered
	for v := 0; v < n; v++ {
		if in.kind[v] == KindUser {
			in.comp[v] = -1
			continue
		}
		r := find(int32(v))
		if rootComp[r] == 0 {
			in.nComp++
			rootComp[r] = int32(in.nComp)
		}
		in.comp[v] = rootComp[r] - 1
	}
}

// countKeywords derives the keyword document frequencies (used by
// workload generators and the semantic-reachability measure) from the
// content keywords: every keyword id is below the dictionary's size, so a
// dense count per id, read in id order, is the sorted table. A node
// counts a keyword once however often it lists it.
func (in *Instance) countKeywords() {
	nk := in.dict.Len()
	freq := make([]int32, nk)
	lastNode := make([]NID, nk) // the node plus one that last counted the keyword
	for v := range in.dictID {
		for _, k := range in.KeywordsOf(NID(v)) {
			if lastNode[k] != NID(v)+1 {
				lastNode[k] = NID(v) + 1
				freq[k]++
			}
		}
	}
	for k, c := range freq {
		if c > 0 {
			in.kwFreqKeys = append(in.kwFreqKeys, dict.ID(k))
			in.kwFreqCounts = append(in.kwFreqCounts, c)
		}
	}
}

// SortedKeywordsByFrequency returns all content keywords sorted by
// ascending document frequency (ties broken by keyword string for
// determinism). Used to build rare/common query workloads (§5.1).
func (in *Instance) SortedKeywordsByFrequency() []dict.ID {
	kws := slices.Clone(in.kwFreqKeys)
	slices.SortFunc(kws, func(a, b dict.ID) int {
		if c := cmp.Compare(in.KeywordFrequency(a), in.KeywordFrequency(b)); c != 0 {
			return c
		}
		return strings.Compare(in.dict.String(a), in.dict.String(b))
	})
	return kws
}
