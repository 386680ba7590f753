package graph

import (
	"s3/internal/dict"
	"s3/internal/rdf"
)

// ExportRDF materialises the complete RDF view of the instance: every
// statement the S3 model defines in §2.2–§2.4, including class assertions,
// document-derived triples, tag triples, weighted social edges and the
// inverse properties. The returned graph shares the instance dictionary
// and additionally contains the (saturated) ontology.
//
// This is the interoperability face of the model (requirement R6): two
// instances exported this way can be unioned into one RDF graph and
// re-imported.
func (in *Instance) ExportRDF() *rdf.Graph {
	g := rdf.New(in.dict)
	for _, t := range in.ont.Triples() {
		g.AddT(t.S, t.P, t.O, t.W)
	}

	typeP := in.dict.Intern(rdf.TypeURI)
	userC := in.dict.Intern(ClassUser)
	docC := in.dict.Intern(ClassDoc)
	relatedC := in.dict.Intern(ClassRelatedTo)
	partOf := in.dict.Intern(PropPartOf)
	contains := in.dict.Intern(PropContains)
	nodeName := in.dict.Intern(PropNodeName)
	postedBy := in.dict.Intern(PropPostedBy)
	postedByInv := in.dict.Intern(PropPostedByInv)
	commentsOnInv := in.dict.Intern(PropCommentsOnInv)
	hasSubject := in.dict.Intern(PropHasSubject)
	hasSubjectInv := in.dict.Intern(PropHasSubjectInv)
	hasKeyword := in.dict.Intern(PropHasKeyword)
	hasAuthor := in.dict.Intern(PropHasAuthor)
	hasAuthorInv := in.dict.Intern(PropHasAuthorInv)

	for _, u := range in.users {
		g.AddT(in.dictID[u], typeP, userC, 1)
	}
	for v := range in.dictID {
		switch in.kind[v] {
		case KindDocNode:
			g.AddT(in.dictID[v], typeP, docC, 1)
			if p := in.parent[v]; p != NoNID {
				g.AddT(in.dictID[v], partOf, in.dictID[p], 1)
			}
			for _, kw := range in.KeywordsOf(NID(v)) {
				g.AddT(in.dictID[v], contains, kw, 1)
			}
			if in.nodeName[v] != dict.NoID {
				g.AddT(in.dictID[v], nodeName, in.nodeName[v], 1)
			}
		case KindTag:
			ti, _ := in.TagInfoOf(NID(v))
			g.AddT(in.dictID[v], typeP, ti.Type, 1)
			if ti.Type != relatedC {
				g.AddT(in.dictID[v], typeP, relatedC, 1)
			}
			g.AddT(in.dictID[v], hasSubject, in.dictID[ti.Subject], 1)
			g.AddT(in.dictID[ti.Subject], hasSubjectInv, in.dictID[v], 1)
			g.AddT(in.dictID[v], hasAuthor, in.dictID[ti.Author], 1)
			g.AddT(in.dictID[ti.Author], hasAuthorInv, in.dictID[v], 1)
			if ti.Keyword != dict.NoID {
				g.AddT(in.dictID[v], hasKeyword, ti.Keyword, 1)
			}
		}
	}
	for _, p := range in.posts {
		g.AddT(in.dictID[p.Doc], postedBy, in.dictID[p.User], 1)
		g.AddT(in.dictID[p.User], postedByInv, in.dictID[p.Doc], 1)
	}
	for _, c := range in.comments {
		g.AddT(in.dictID[c.Comment], c.Prop, in.dictID[c.Target], 1)
		g.AddT(in.dictID[c.Target], commentsOnInv, in.dictID[c.Comment], 1)
	}
	// Social edges carry their quantitative weight and therefore do not
	// participate in entailment (weighted-graph semantics, §2.1).
	for _, u := range in.users {
		for _, e := range in.OutEdges(u) {
			if in.kind[e.To] == KindUser {
				g.AddT(in.dictID[u], e.Prop, in.dictID[e.To], e.W)
			}
		}
	}
	// "The semantics of an RDF graph is its saturation" (§2.1): derive
	// the implicit statements — e.g. a repliesTo edge also holds as
	// S3:commentsOn through the sub-property constraint.
	g.Saturate()
	return g
}
