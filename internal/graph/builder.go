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
	// Docs holds document trees, which building only reads: a node's URI
	// may be left empty below the root (doc.Walk derives it), and its
	// Keywords nil for the analyzer to find them in Text.
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
//
// Every string it is fed goes into one table (strTable) as it is added,
// and each reference to a node resolves there, once, to the node's kind
// and its ordinal among the nodes of that kind: users in the order added,
// document nodes in pre-order, document after document, and tags in the
// order added. Build numbers the nodes from those ordinals and assigns the
// dictionary's ids without hashing those strings again.
type Builder struct {
	analyzer text.Analyzer
	strs     strTable

	// The accumulated spec, every string by its table position. The
	// ontology holds each sub-property or sub-class declaration of a
	// relation's property or class once, where it was first used.
	ontology [][3]int32
	users    []int32     // URIs
	roots    []*doc.Node // document roots, as given
	nodes    []docNode   // document nodes, numbered by their ordinal
	kwOff    []int32     // node j's content keywords are kws[kwOff[j]:kwOff[j+1]]
	kws      []int32
	social   []socialRef
	posts    []postRef
	comments []commentRef
	tags     []tagRef

	stack []int32 // AddDocument's work buffer
}

// docNode is one document node: its URI and name, the ordinals of its
// parent (-1 for a root) and of its document's root.
type docNode struct{ uri, name, parent, root int32 }

// socialRef is a social edge between two users by ordinal; prop is the
// position of its property, -1 when it was given empty.
type socialRef struct {
	from, to, prop int32
	w              float64
}

// postRef is a post: a document node and a user, by ordinal.
type postRef struct{ doc, user int32 }

// commentRef is a comment: the ordinals of the comment's root and of the
// target node, and its property's position, -1 when it was given empty.
type commentRef struct{ comment, target, prop int32 }

// tagRef is a tag: its URI, its subject (a document node or tag), its
// author's ordinal, and the positions of its keyword, the keyword's stem
// and its type, each -1 when it was given empty.
type tagRef struct {
	uri           int32
	subjectKind   NodeKind
	subject       int32
	author        int32
	keyword, stem int32
	typ           int32
}

// NewBuilder returns a builder using the given text analyzer for document
// content and tag keywords.
func NewBuilder(analyzer text.Analyzer) *Builder {
	return newBuilder(analyzer, 0)
}

// newBuilder returns a builder whose string table has room for about n
// strings.
func newBuilder(analyzer text.Analyzer, n int) *Builder {
	return &Builder{analyzer: analyzer, strs: newStrTable(n), kwOff: []int32{0}}
}

// AddOntologyTriple records a weight-1 RDF statement (schema or fact). A
// statement that declares a property a sub-property of S3:social or
// S3:commentsOn, or a class a subclass of S3:relatedTo, stands for the
// declaration AddSocial, AddComment or AddTag would make of it.
func (b *Builder) AddOntologyTriple(s, p, o string) {
	t := [3]int32{b.strs.add(s), b.strs.add(p), b.strs.add(o)}
	switch {
	case p == rdf.SubPropertyOfURI && o == PropSocial:
		b.strs.ents[t[0]].decl |= declSocial
	case p == rdf.SubPropertyOfURI && o == PropCommentsOn:
		b.strs.ents[t[0]].decl |= declCommentsOn
	case p == rdf.SubClassOfURI && o == ClassRelatedTo:
		b.strs.ents[t[0]].decl |= declRelatedTo
	}
	b.ontology = append(b.ontology, t)
}

// declare records, the first time name is used as the property or class
// of a relation, the statement that it is a sub-property or subclass (rel)
// of super, and returns name's position; -1 for an empty name.
func (b *Builder) declare(name string, flag uint8, rel, super string) int32 {
	if name == "" {
		return -1
	}
	p := b.strs.add(name)
	if name != super && b.strs.ents[p].decl&flag == 0 {
		b.strs.ents[p].decl |= flag
		b.ontology = append(b.ontology, [3]int32{p, b.strs.add(rel), b.strs.add(super)})
	}
	return p
}

// AddUser registers a user URI. Adding the same user twice is a no-op.
func (b *Builder) AddUser(uri string) error {
	if uri == "" {
		return fmt.Errorf("graph: empty user URI")
	}
	p := b.strs.add(uri)
	if e := b.strs.ents[p]; e.ord != 0 {
		if e.kind == KindUser {
			return nil
		}
		return fmt.Errorf("graph: URI %q already used by a %s", uri, e.kind)
	}
	b.users = append(b.users, p)
	b.strs.ents[p].kind, b.strs.ents[p].ord = KindUser, int32(len(b.users))
	return nil
}

// AddSocial records a weighted social edge between two existing users,
// optionally through a named sub-property of S3:social (the sub-property
// fact is added to the ontology at its first use).
func (b *Builder) AddSocial(from, to string, w float64, prop string) error {
	f, ok := b.strs.findNode(from, KindUser)
	if !ok {
		return fmt.Errorf("graph: social edge from unknown user %q", from)
	}
	g, ok := b.strs.findNode(to, KindUser)
	if !ok {
		return fmt.Errorf("graph: social edge to unknown user %q", to)
	}
	if f == g {
		return fmt.Errorf("graph: self social edge on %q", from)
	}
	if !(w > 0 && w <= 1) {
		return fmt.Errorf("graph: social weight %v outside (0,1]", w)
	}
	p := b.declare(prop, declSocial, rdf.SubPropertyOfURI, PropSocial)
	b.social = append(b.social, socialRef{from: f, to: g, prop: p, w: w})
	return nil
}

// AddDocument registers a document tree, walking it once (doc.Walk):
// every node by the URI it was given or Walk derives, in pre-order. Each
// node's keywords are its Keywords if set, else those the builder's
// analyzer finds in its Text; they stay inside the builder. The tree is
// only read. A refused document leaves the builder as it was.
func (b *Builder) AddDocument(root *doc.Node) error {
	// In pre-order a node's parent is the last node met one level up: the
	// stack holds the ordinal of the last node met at each depth. A URI
	// already naming a node of this document is a duplicate within it.
	first, nkws := int32(len(b.nodes)), len(b.kws)
	stack := b.stack[:0]
	err := doc.Walk(root, func(n *doc.Node, uri string, depth int) error {
		p := b.strs.add(uri)
		if e := b.strs.ents[p]; e.ord != 0 {
			switch {
			case e.kind == KindDocNode && e.ord-1 >= first:
				return fmt.Errorf("doc: duplicate node URI %q in document %q", uri, root.URI)
			case depth == 0 && e.kind == KindDocNode && b.nodes[e.ord-1].root == e.ord-1:
				return fmt.Errorf("graph: duplicate document %q", uri)
			}
			return fmt.Errorf("graph: node URI %q already used by a %s", uri, e.kind)
		}
		j, parent := int32(len(b.nodes)), int32(-1)
		if depth > 0 {
			stack = stack[:depth]
			parent = stack[depth-1]
		}
		stack = append(stack, j)
		b.strs.ents[p].kind, b.strs.ents[p].ord = KindDocNode, j+1
		b.nodes = append(b.nodes, docNode{uri: p, name: b.strs.add(n.Name), parent: parent, root: first})
		kws := n.Keywords
		if kws == nil && n.Text != "" {
			kws = b.analyzer.Keywords(n.Text)
		}
		for _, kw := range kws {
			b.kws = append(b.kws, b.strs.add(kw))
		}
		b.kwOff = append(b.kwOff, int32(len(b.kws)))
		return nil
	})
	b.stack = stack
	if err != nil {
		for _, dn := range b.nodes[first:] {
			b.strs.ents[dn.uri].kind, b.strs.ents[dn.uri].ord = 0, 0
		}
		b.nodes, b.kws, b.kwOff = b.nodes[:first], b.kws[:nkws], b.kwOff[:first+1]
		return err
	}
	b.roots = append(b.roots, root)
	return nil
}

// AddPost records that an existing document node was posted by an existing
// user.
func (b *Builder) AddPost(docNode, user string) error {
	d, ok := b.strs.findNode(docNode, KindDocNode)
	if !ok {
		return fmt.Errorf("graph: post of unknown document node %q", docNode)
	}
	u, ok := b.strs.findNode(user, KindUser)
	if !ok {
		return fmt.Errorf("graph: post by unknown user %q", user)
	}
	b.posts = append(b.posts, postRef{doc: d, user: u})
	return nil
}

// AddComment records that document comment comments on node target,
// optionally through a sub-property of S3:commentsOn (the sub-property
// fact is added to the ontology at its first use).
func (b *Builder) AddComment(comment, target, prop string) error {
	c, ok := b.strs.findNode(comment, KindDocNode)
	if !ok || b.nodes[c].root != c {
		return fmt.Errorf("graph: comment %q is not a registered document root", comment)
	}
	g, ok := b.strs.findNode(target, KindDocNode)
	if !ok {
		return fmt.Errorf("graph: comment target %q is not a document node", target)
	}
	if b.nodes[g].root == c {
		return fmt.Errorf("graph: document %q cannot comment on its own node %q", comment, target)
	}
	p := b.declare(prop, declCommentsOn, rdf.SubPropertyOfURI, PropCommentsOn)
	b.comments = append(b.comments, commentRef{comment: c, target: g, prop: p})
	return nil
}

// AddTag declares a tag by author on subject (a document node or an
// earlier tag — the latter gives the higher-level annotations of R4).
// keyword == "" declares an endorsement. typ may name a subclass of
// S3:relatedTo (the subclass fact is added to the ontology at its first
// use).
func (b *Builder) AddTag(uri, subject, author, keyword, typ string) error {
	if uri == "" {
		return fmt.Errorf("graph: empty tag URI")
	}
	p := b.strs.add(uri)
	if e := b.strs.ents[p]; e.ord != 0 {
		return fmt.Errorf("graph: URI %q already used by a %s", uri, e.kind)
	}
	var subj strEntry
	if s, ok := b.strs.find(subject); ok {
		subj = b.strs.ents[s]
	}
	if subj.ord == 0 || (subj.kind != KindDocNode && subj.kind != KindTag) {
		return fmt.Errorf("graph: tag subject %q is not a document node or tag", subject)
	}
	a, ok := b.strs.findNode(author, KindUser)
	if !ok {
		return fmt.Errorf("graph: tag author %q is not a user", author)
	}
	tr := tagRef{uri: p, subjectKind: subj.kind, subject: subj.ord - 1, author: a, keyword: -1, stem: -1}
	tr.typ = b.declare(typ, declRelatedTo, rdf.SubClassOfURI, ClassRelatedTo)
	if keyword != "" {
		tr.keyword = b.strs.add(keyword)
		if b.strs.ents[tr.keyword].stem == 0 {
			b.strs.ents[tr.keyword].stem = b.strs.add(b.analyzer.Term(keyword)) + 1
		}
		tr.stem = b.strs.ents[tr.keyword].stem - 1
	}
	b.tags = append(b.tags, tr)
	b.strs.ents[p].kind, b.strs.ents[p].ord = KindTag, int32(len(b.tags))
	return nil
}

// Spec returns the accumulated specification: the strings as given, each
// sub-property or subclass declaration once, and the document roots as
// given (their Keywords untouched by the analyzer).
func (b *Builder) Spec() Spec {
	str := func(p int32) string {
		if p < 0 {
			return ""
		}
		return b.strs.strs[p]
	}
	user := func(u int32) string { return str(b.users[u]) }
	node := func(j int32) string { return str(b.nodes[j].uri) }
	spec := Spec{
		Ontology: make([][3]string, len(b.ontology)),
		Users:    make([]string, len(b.users)),
		Social:   make([]SocialSpec, len(b.social)),
		Docs:     b.roots,
		Posts:    make([]PostSpec, len(b.posts)),
		Comments: make([]CommentSpec, len(b.comments)),
		Tags:     make([]TagSpec, len(b.tags)),
	}
	for i, t := range b.ontology {
		spec.Ontology[i] = [3]string{str(t[0]), str(t[1]), str(t[2])}
	}
	for i := range b.users {
		spec.Users[i] = user(int32(i))
	}
	for i, s := range b.social {
		spec.Social[i] = SocialSpec{From: user(s.from), To: user(s.to), W: s.w, Prop: str(s.prop)}
	}
	for i, p := range b.posts {
		spec.Posts[i] = PostSpec{Doc: node(p.doc), User: user(p.user)}
	}
	for i, c := range b.comments {
		spec.Comments[i] = CommentSpec{Comment: node(c.comment), Target: node(c.target), Prop: str(c.prop)}
	}
	for i, t := range b.tags {
		subject := node(t.subject)
		if t.subjectKind == KindTag {
			subject = str(b.tags[t.subject].uri)
		}
		spec.Tags[i] = TagSpec{URI: str(t.uri), Subject: subject, Author: user(t.author), Keyword: str(t.keyword), Type: str(t.typ)}
	}
	return spec
}

// BuildSpec validates and freezes a Spec into an Instance in one call,
// with the builder's tables sized from the spec. It only reads the spec,
// walking each document tree once and writing nothing into it, and keeps
// no reference to its slices, so builds of one spec may run at once.
func BuildSpec(spec Spec, analyzer text.Analyzer) (*Instance, error) {
	b := newBuilder(analyzer, 3*len(spec.Ontology)+len(spec.Users)+4*len(spec.Docs)+2*len(spec.Tags))
	b.ontology = make([][3]int32, 0, len(spec.Ontology)+3)
	b.users = make([]int32, 0, len(spec.Users))
	b.social = make([]socialRef, 0, len(spec.Social))
	b.roots = make([]*doc.Node, 0, len(spec.Docs))
	b.posts = make([]postRef, 0, len(spec.Posts))
	b.comments = make([]commentRef, 0, len(spec.Comments))
	b.tags = make([]tagRef, 0, len(spec.Tags))
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
// pre-order, then tags) from the ordinals their references resolved to,
// records the social, post, comment and tag relations, lays out the
// dictionary and freezes the ontology into its sorted form, and derives,
// through the derivation FromRaw runs too (derive), the node lists, the
// network edges with their inverses, the normalised transition matrix,
// the keyword frequencies, the component partition and the statistics.
//
// The dictionary's ids are the order in which this walk first meets each
// string — the RDFS vocabulary rdf.New interns, the ontology triple by
// triple (subject, property, object), the S3 schema, the user URIs, each
// document node's URI, name and keywords, each tag's URI, keyword stem
// and class, then the relations' properties in deriveEdges' order — and a
// snapshot stores them: a change to this order changes every file built.
func (b *Builder) Build() (*Instance, error) {
	// rdf.New interns the RDFS vocabulary into a dictionary of its own;
	// those strings take the first ids here, in its order.
	rdfs := dict.New()
	ont := rdf.New(rdfs)
	d := newDictBuilder(&b.strs)
	k := func(s string) dict.ID { return d.id(b.strs.add(s)) }
	for i := range rdfs.Len() {
		k(rdfs.String(dict.ID(i)))
	}
	for _, t := range b.ontology {
		ont.AddT(d.id(t[0]), d.id(t[1]), d.id(t[2]), 1)
	}
	// The schema of the S3 namespace itself (§2.3).
	ont.AddT(k(PropPartOf), k(rdf.DomainURI), k(ClassDoc), 1)
	ont.AddT(k(PropPartOf), k(rdf.RangeURI), k(ClassDoc), 1)
	ont.AddT(k(PropContains), k(rdf.DomainURI), k(ClassDoc), 1)
	ont.AddT(k(PropNodeName), k(rdf.DomainURI), k(ClassDoc), 1)
	ont.Saturate()

	nu, nd := len(b.users), len(b.nodes)
	n := nu + nd + len(b.tags)
	in := &Instance{
		analyzer: b.analyzer,
		dictID:   make([]dict.ID, n),
		kind:     make([]NodeKind, n),
		parent:   make([]NID, n),
		nodeName: make([]dict.ID, n),
		kwOff:    make([]int64, n+1),
		kwList:   make([]dict.ID, len(b.kws)),
		tagInfos: make([]TagInfo, len(b.tags)),
		social:   make([]SocialEdge, len(b.social)),
		posts:    make([]PostEdge, len(b.posts)),
		comments: make([]CommentEdge, len(b.comments)),
	}
	for v := range in.parent {
		in.parent[v] = NoNID
		in.nodeName[v] = dict.NoID
	}
	for u, p := range b.users {
		in.dictID[u] = d.id(p)
	}
	docNID := func(j int32) NID { return NID(nu) + NID(j) }
	// or is p, or def for a string given empty (-1).
	or := func(p, def int32) int32 {
		if p < 0 {
			return def
		}
		return p
	}
	for j, dn := range b.nodes {
		v := docNID(int32(j))
		in.dictID[v] = d.id(dn.uri)
		in.kind[v] = KindDocNode
		in.nodeName[v] = d.id(dn.name)
		lo, hi := b.kwOff[j], b.kwOff[j+1]
		for i := lo; i < hi; i++ {
			in.kwList[i] = d.id(b.kws[i])
		}
		in.kwOff[v+1] = int64(hi)
		if dn.parent >= 0 {
			in.parent[v] = docNID(dn.parent)
		}
	}
	// Tags are numbered after every user and document node, in order, so
	// tag info i describes the i-th tag node.
	relatedTo := b.strs.add(ClassRelatedTo)
	for i, t := range b.tags {
		v := NID(nu + nd + i)
		in.dictID[v] = d.id(t.uri)
		in.kind[v] = KindTag
		subj := docNID(t.subject)
		if t.subjectKind == KindTag {
			subj = NID(nu+nd) + NID(t.subject)
		}
		kw := dict.NoID
		if t.stem >= 0 {
			kw = d.id(t.stem)
		}
		in.tagInfos[i] = TagInfo{Subject: subj, Author: NID(t.author), Keyword: kw, Type: d.id(or(t.typ, relatedTo))}
	}
	for v := nu + nd; v < n; v++ {
		in.kwOff[v+1] = in.kwOff[v]
	}

	// The relations the network edges (§2.5) are derived from (derive).
	// Each edge property is interned in the order deriveEdges lists the
	// edges, which fixes its dictionary id.
	social, commentsOn, commentsOnInv := b.strs.add(PropSocial), b.strs.add(PropCommentsOn), b.strs.add(PropCommentsOnInv)
	for i, s := range b.social {
		in.social[i] = SocialEdge{From: NID(s.from), To: NID(s.to), Prop: d.id(or(s.prop, social)), W: s.w}
	}
	if len(b.posts) > 0 {
		k(PropPostedBy)
		k(PropPostedByInv)
	}
	for i, p := range b.posts {
		in.posts[i] = PostEdge{Doc: docNID(p.doc), User: NID(p.user)}
	}
	for i, c := range b.comments {
		in.comments[i] = CommentEdge{Comment: docNID(c.comment), Target: docNID(c.target), Prop: d.id(or(c.prop, commentsOn))}
		d.id(commentsOnInv)
	}
	if len(b.tags) > 0 {
		for _, p := range []string{PropHasSubject, PropHasSubjectInv, PropHasAuthor, PropHasAuthorInv} {
			k(p)
		}
	}

	// Nothing is interned from here on: the dictionary and the ontology
	// freeze into the sorted forms a snapshot stores and a loaded
	// instance holds.
	var err error
	if in.dict, err = d.freeze(); err != nil {
		return nil, err
	}
	if in.ont, err = rdf.FromTriplesFrozen(in.dict, ont.Triples(), rdf.TriplePOS(ont.Triples())); err != nil {
		return nil, err
	}
	if err := in.derive(); err != nil {
		return nil, err
	}
	return in, nil
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
	ownW := make([]float64, len(in.dictID))
	for v := range ownW {
		for _, e := range list[off[v]:off[v+1]] {
			ownW[v] += e.W
		}
	}
	return neighborhoodSums(in, ownW)
}

// neighborhoodSums returns, for every node v, the sum of own over v's
// vertical neighbourhood: its subtree's and then its ancestors' for a
// document node, its own otherwise.
func neighborhoodSums[T int64 | float64](in *Instance, own []T) []T {
	n := len(own)
	// sub[v] = Σ own over v's subtree (doc nodes; own for the rest).
	sub := make([]T, n)
	var subtree func(v NID) T
	subtree = func(v NID) T {
		w := own[v]
		for _, c := range in.ChildrenOf(v) {
			w += subtree(c)
		}
		sub[v] = w
		return w
	}
	for v := 0; v < n; v++ {
		if in.kind[v] == KindDocNode && in.parent[v] == NoNID {
			subtree(NID(v))
		} else if in.kind[v] != KindDocNode {
			sub[v] = own[v]
		}
	}
	// Adding the ancestors' own values completes the neighbourhood.
	for v := 0; v < n; v++ {
		for p := in.parent[v]; p != NoNID; p = in.parent[p] {
			sub[v] += own[p]
		}
	}
	return sub
}

// buildMatrix materialises the normalised transition matrix (§2.5). For a
// node v, the walk may leave from any vertical neighbour m of v; the edge
// (m → t, w) contributes w / W(v) to M[v][t], with W(v) the total
// out-weight of the neighbourhood. It reads the full edge CSR deriveEdges
// returns and adds the rows in ascending order, as sparse.Builder takes
// them: row v's adds are its neighbours' edges, v's subtree in pre-order
// then its ancestors upward, each neighbour's in edge order. That order is
// the summation order: each cell is the left-to-right sum of its adds,
// and the counts of the neighbourhoods' edges size the builder's add
// list.
func (in *Instance) buildMatrix(off []int64, list []Edge) {
	n := len(in.dictID)
	totalW := in.neighborhoodOutWeights(off, list)
	deg := make([]int64, n)
	for v := range deg {
		deg[v] = off[v+1] - off[v]
	}
	adds := int64(0)
	for v, d := range neighborhoodSums(in, deg) {
		if totalW[v] != 0 {
			adds += d
		}
	}
	bld := sparse.NewBuilder(n)
	bld.Grow(int(adds))
	var members []NID
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
		for _, m := range members {
			for _, e := range list[off[m]:off[m+1]] {
				bld.Add(v, int(e.To), e.W/totalW[v])
			}
		}
	}
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
