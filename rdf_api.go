package s3

import (
	"fmt"
	"io"
	"sync"

	"s3/internal/core"
	"s3/internal/rdf"
)

// This file exposes the semantic side-doors of an instance: beyond top-k
// keyword search, the paper notes (§1) that an S3 instance can be
// exploited "through structured XML and/or RDF queries"; §2.2 derives new
// social edges from such queries (extensibility).

// rdfView lazily materialises the full RDF export of the instance
// (ontology + every S3-model statement, §2.2-§2.4).
type rdfView struct {
	once sync.Once
	g    *rdf.Graph
}

func (i *Instance) rdfGraph() *rdf.Graph {
	i.rdfv.once.Do(func() { i.rdfv.g = i.in.ExportRDF() })
	return i.rdfv.g
}

// QueryRDF evaluates a conjunctive triple-pattern query (the BGP core of
// SPARQL) over the instance's full RDF view. Patterns are strings of
// three whitespace-separated terms; '?'-prefixed terms are variables:
//
//	inst.QueryRDF("?c S3:commentsOn ?d", "?c S3:postedBy ?author")
//
// The result is one map per match, binding variable names to values.
//
// The view is built on first use and interns its vocabulary into the
// instance's dictionary, apart from the part a snapshot stores: QueryRDF
// and WriteRDF are safe alongside searches, and WriteSnapshot writes the
// same bytes before and after them.
func (i *Instance) QueryRDF(patterns ...string) ([]map[string]string, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("s3: empty RDF query")
	}
	g := i.rdfGraph()
	bindings, err := g.QueryStrings(patterns...)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]string, 0, len(bindings))
	for _, b := range bindings {
		m := make(map[string]string, len(b))
		for v, id := range b {
			m[v] = g.Dict().String(id)
		}
		out = append(out, m)
	}
	return out, nil
}

// WriteRDF serialises the instance's full RDF view in (weighted)
// N-Triples — the interoperability format of requirement R6. Like
// QueryRDF, it is safe alongside searches.
func (i *Instance) WriteRDF(w io.Writer) error {
	return i.rdfGraph().WriteNTriples(w)
}

// SearchContentOnly ranks fragments ignoring the social dimension
// entirely (every proximity fixed at 1): the classical LCA-flavoured XML
// keyword search the S3k score degenerates to (§3.4). Useful as a
// baseline and for seekerless applications.
func (i *Instance) SearchContentOnly(keywords []string, opts ...Option) ([]Result, error) {
	cfg := searchConfig{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	rs, err := i.eng.SearchContentOnly(keywords, cfg.opts.K, cfg.opts.Params)
	if err != nil {
		return nil, err
	}
	return mapResults(i.in, rs), nil
}
