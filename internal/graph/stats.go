package graph

import (
	"fmt"
	"strings"
)

// Stats summarises an instance the way Figure 4 of the paper does.
type Stats struct {
	Users       int
	SocialEdges int
	// Documents counts document roots; Fragments the non-root nodes
	// (Figure 4's "Fragments (non-root)").
	Documents int
	Fragments int
	Tags      int
	// KeywordOccurrences counts node-keyword containment pairs (the
	// paper's "Keywords" row); DistinctKeywords the vocabulary size.
	KeywordOccurrences int
	DistinctKeywords   int
	Comments           int
	Posts              int
	// Nodes and Edges match Figure 4's "Nodes (without keywords)" and
	// "Edges (without keywords)": instance nodes, and network edges
	// (inverses included) plus tree edges. Edges counts every derived
	// network edge, not only the users' that OutEdges keeps.
	Nodes int
	Edges int
	// AvgSocialDegree averages outgoing social edges over users having
	// at least one (Figure 4's "S3:social edges per user having any").
	AvgSocialDegree float64
	OntologyTriples int
	Components      int
}

// computeStats derives the statistics from the instance's tables, for a
// built and a loaded instance alike, given the number of network edges
// deriveEdges derived. Social edges are the user → user out-edges:
// Builder.AddSocial makes every one of them, and nothing else does.
func (in *Instance) computeStats(edges int) {
	s := Stats{
		Users:              len(in.users),
		Documents:          len(in.docRoots),
		Tags:               len(in.tagList),
		KeywordOccurrences: len(in.kwList),
		DistinctKeywords:   len(in.kwFreqKeys),
		Comments:           len(in.comments),
		Posts:              len(in.posts),
		Nodes:              len(in.dictID),
		OntologyTriples:    in.ont.Len(),
		Components:         in.nComp,
	}
	for v := range in.dictID {
		if in.kind[v] == KindDocNode && in.parent[v] != NoNID {
			s.Fragments++
		}
	}
	// Tree edges count once per non-root document node.
	s.Edges = edges + s.Fragments

	usersWithEdges := 0
	for _, u := range in.users {
		n := 0
		for _, e := range in.OutEdges(u) {
			if in.kind[e.To] == KindUser {
				n++
			}
		}
		if n > 0 {
			usersWithEdges++
			s.SocialEdges += n
		}
	}
	if usersWithEdges > 0 {
		s.AvgSocialDegree = float64(s.SocialEdges) / float64(usersWithEdges)
	}
	in.stats = s
}

// String renders the statistics as an aligned two-column table in the
// style of Figure 4.
func (s Stats) String() string {
	rows := []struct {
		label string
		value string
	}{
		{"Users", fmt.Sprint(s.Users)},
		{"S3:social edges", fmt.Sprint(s.SocialEdges)},
		{"Documents", fmt.Sprint(s.Documents)},
		{"Fragments (non-root)", fmt.Sprint(s.Fragments)},
		{"Tags", fmt.Sprint(s.Tags)},
		{"Keywords (occurrences)", fmt.Sprint(s.KeywordOccurrences)},
		{"Distinct keywords", fmt.Sprint(s.DistinctKeywords)},
		{"Comment edges", fmt.Sprint(s.Comments)},
		{"Post edges", fmt.Sprint(s.Posts)},
		{"Ontology triples (saturated)", fmt.Sprint(s.OntologyTriples)},
		{"S3:social edges per user having any (average)", fmt.Sprintf("%.1f", s.AvgSocialDegree)},
		{"Nodes (without keywords)", fmt.Sprint(s.Nodes)},
		{"Edges (without keywords)", fmt.Sprint(s.Edges)},
		{"Components", fmt.Sprint(s.Components)},
	}
	width := 0
	for _, r := range rows {
		if len(r.label) > width {
			width = len(r.label)
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s  %s\n", width, r.label, r.value)
	}
	return sb.String()
}
