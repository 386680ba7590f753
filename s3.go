// Package s3 is a Go implementation of the S3 data model and the S3k
// top-k search algorithm from "Social, Structured and Semantic Search"
// (Bonaque, Cautis, Goasdoué, Manolescu — EDBT 2016).
//
// S3 models a social application as one weighted graph combining:
//
//   - users and weighted social relationships (and arbitrary
//     application-specific sub-relationships such as "follows");
//   - structured, tree-shaped documents (XML/JSON) whose fragments are
//     first-class search results;
//   - tags, endorsements and comments connecting users to content (and
//     tags to tags);
//   - an RDFS ontology giving keywords semantic extensions
//     (e.g. Ext("degree") ∋ "M.S.").
//
// S3k answers keyword queries with the k best document fragments for a
// given seeker, scoring results by the combination of social proximity
// (an all-paths, Katz-style measure over the normalised network graph),
// document structure (fragment depth damping) and semantics (keyword
// extensions) — and provably returns a correct top-k answer.
//
// # Quick start
//
//	b := s3.NewBuilder(s3.English)
//	b.AddUser("alice")
//	b.AddUser("bob")
//	b.AddSocial("alice", "bob", 0.8)
//	b.AddDocumentText("post1", "post", "My M.S. graduation at the university")
//	b.AddPost("post1", "bob")
//	b.AddTriple("m.s", "rdfs:subClassOf", "degre") // stemmed "degree"
//	inst, _ := b.Build()
//	results, _ := inst.Search("alice", []string{"degree"}, s3.WithK(3))
//
// # Persistence and serving
//
// An instance persists two ways. EncodeSpec stores the declarative
// content (users, documents, tags, ontology); BuildFromSpec re-runs the
// whole build pipeline on load. WriteSnapshot stores the frozen derived
// state — dictionary, graph tables, normalised matrix, saturated ontology
// and connection index — in a versioned binary format; ReadSnapshot
// cold-starts from it in milliseconds, which is what the long-lived query
// server (cmd/s3serve, internal/server) uses to boot and hot-reload.
package s3

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/text"
)

// Lang selects the text pipeline used to turn document text and tag
// keywords into index terms.
type Lang int

const (
	// English uses a Porter stemmer and English stop words.
	English Lang = iota
	// French uses a light French stemmer and French stop words.
	French
	// Raw disables stemming and stop-word removal (identifier-like
	// vocabularies).
	Raw
)

func (l Lang) analyzer() text.Analyzer {
	switch l {
	case French:
		return text.Analyzer{Lang: text.French}
	case Raw:
		return text.Analyzer{Lang: text.None}
	default:
		return text.Analyzer{Lang: text.English}
	}
}

// DocNode is a node of a structured document: a name, optional text
// content, and ordered children. URIs may be left empty everywhere except
// the root: Dewey-style URIs (root.1.2) are derived automatically.
type DocNode struct {
	URI      string
	Name     string
	Text     string
	Children []*DocNode
}

func (n *DocNode) toDoc() *doc.Node {
	out := &doc.Node{URI: n.URI, Name: n.Name, Text: n.Text}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.toDoc())
	}
	return out
}

// Builder assembles an S3 instance. Content may be added in any order as
// long as referenced entities exist (users before their edges, documents
// before comments or tags on them). Builders are not safe for concurrent
// use.
type Builder struct {
	b    *graph.Builder
	lang Lang
}

// NewBuilder returns an empty builder with the given text pipeline.
func NewBuilder(lang Lang) *Builder {
	return &Builder{b: graph.NewBuilder(lang.analyzer()), lang: lang}
}

// AddUser registers a user; re-adding is a no-op.
func (b *Builder) AddUser(uri string) error { return b.b.AddUser(uri) }

// AddSocial adds a directed social edge with strength w ∈ (0, 1].
func (b *Builder) AddSocial(from, to string, w float64) error {
	return b.b.AddSocial(from, to, w, "")
}

// AddSocialAs adds a social edge through a named relationship (e.g.
// "follows"); the relationship is registered as a sub-property of
// S3:social in the ontology.
func (b *Builder) AddSocialAs(from, to string, w float64, relationship string) error {
	return b.b.AddSocial(from, to, w, relationship)
}

// AddDocument adds a structured document.
func (b *Builder) AddDocument(root *DocNode) error {
	if root == nil {
		return fmt.Errorf("s3: nil document")
	}
	return b.b.AddDocument(root.toDoc())
}

// AddDocumentText adds a single-node document with the given text.
func (b *Builder) AddDocumentText(uri, name, content string) error {
	return b.b.AddDocument(&doc.Node{URI: uri, Name: name, Text: content})
}

// AddDocumentXML parses an XML document and adds it under the given URI.
func (b *Builder) AddDocumentXML(uri string, r io.Reader) error {
	d, err := doc.ParseXML(uri, r)
	if err != nil {
		return err
	}
	return b.b.AddDocument(d.Root())
}

// AddDocumentJSON parses a JSON document and adds it under the given URI.
func (b *Builder) AddDocumentJSON(uri string, r io.Reader) error {
	d, err := doc.ParseJSON(uri, r)
	if err != nil {
		return err
	}
	return b.b.AddDocument(d.Root())
}

// AddPost records that a document (or fragment) was posted by a user.
func (b *Builder) AddPost(docURI, userURI string) error {
	return b.b.AddPost(docURI, userURI)
}

// AddComment records that document commentURI comments on (replies to,
// reviews, ...) the node targetURI of another document.
func (b *Builder) AddComment(commentURI, targetURI string) error {
	return b.b.AddComment(commentURI, targetURI, "")
}

// AddCommentAs is AddComment through a named sub-relationship of
// S3:commentsOn (e.g. "repliesTo").
func (b *Builder) AddCommentAs(commentURI, targetURI, relationship string) error {
	return b.b.AddComment(commentURI, targetURI, relationship)
}

// AddTag records that author annotated subject (a document node or an
// earlier tag) with a keyword. The keyword passes through the same text
// pipeline as document content.
func (b *Builder) AddTag(tagURI, subjectURI, authorURI, keyword string) error {
	return b.b.AddTag(tagURI, subjectURI, authorURI, keyword, "")
}

// AddTagAs is AddTag with a custom tag class (registered as a subclass of
// S3:relatedTo), e.g. "NLP:recognize" for tool-produced annotations.
func (b *Builder) AddTagAs(tagURI, subjectURI, authorURI, keyword, class string) error {
	return b.b.AddTag(tagURI, subjectURI, authorURI, keyword, class)
}

// AddEndorsement records a keyword-less approval (like, +1, retweet) of
// subject by author.
func (b *Builder) AddEndorsement(tagURI, subjectURI, authorURI string) error {
	return b.b.AddTag(tagURI, subjectURI, authorURI, "", "")
}

// AddTriple adds a weight-1 RDF statement to the ontology. Keywords
// occurring as subjects/objects should be in stemmed form to align with
// the content vocabulary (use Stem).
func (b *Builder) AddTriple(s, p, o string) {
	b.b.AddOntologyTriple(s, p, o)
}

// Stem runs a word through the builder's text pipeline, returning the
// index term it maps to (useful when writing ontology triples).
func (b *Builder) Stem(word string) string {
	ks := b.lang.analyzer().Keywords(word)
	if len(ks) == 0 {
		return word
	}
	return ks[0]
}

// Build validates and freezes the instance: it saturates the ontology,
// computes the normalised social-path matrix, partitions content into
// components and builds the connection index. The builder must not be
// used afterwards.
func (b *Builder) Build() (*Instance, error) {
	in, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return newInstance(in), nil
}

// newInstance indexes a frozen graph instance and wires the engine.
func newInstance(in *graph.Instance) *Instance {
	ix := index.Build(in)
	return &Instance{in: in, ix: ix, eng: core.NewEngine(in, ix)}
}

// Stats summarises an instance (Figure 4 of the paper).
type Stats = graph.Stats

// Instance is a frozen, queryable S3 instance. It is immutable (a search
// counter aside) and safe for concurrent searches.
type Instance struct {
	in   *graph.Instance
	ix   *index.Index
	eng  *core.Engine
	rdfv rdfView

	// lifecycle owns the memory mapping behind a LoadMmap instance
	// (Close / MappedBytes); zero for built and copy-loaded instances.
	lifecycle

	// searches counts SearchInfoed calls over the instance's lifetime;
	// rounds accumulates their exploration rounds (surfaced by Shards).
	searches atomic.Uint64
	rounds   atomic.Uint64

	// prox is the optional seeker-proximity checkpoint cache (atomic so it
	// can be attached or swapped while searches are in flight).
	prox atomic.Pointer[ProxCache]

	// obsm is the optional search-metrics sink (atomic for the same
	// reason: the serving layer attaches it while searches may be in
	// flight across a hot reload).
	obsm atomic.Pointer[SearchMetrics]
}

// Trace is a per-search span tree recorder. Pass one to a search with
// WithTrace; after the search, its root span holds the timed stages
// (resolve, rounds, finalize) as children. A nil *Trace disables
// recording at zero cost.
type Trace = obs.Trace

// SearchMetrics is the per-search instrument bundle (rounds-per-search
// and per-round latency histograms) a serving layer attaches with
// SetSearchMetrics so every search feeds the process-wide registry.
type SearchMetrics = obs.SearchMetrics

// SetSearchMetrics attaches (or with nil, detaches) the instrument
// bundle fed by subsequent searches. Safe to call while searches are in
// flight.
func (i *Instance) SetSearchMetrics(m *SearchMetrics) { i.obsm.Store(m) }

// Stats returns instance statistics.
func (i *Instance) Stats() Stats { return i.in.Stats() }

// HasUser reports whether uri names a user of the instance (and may
// therefore act as a seeker).
func (i *Instance) HasUser(uri string) bool {
	n, ok := i.in.NIDOf(uri)
	return ok && i.in.KindOf(n) == graph.KindUser
}

// Result is one search answer: a document fragment with its score
// interval (after a complete search, the interval tightly brackets the
// exact score; the answer set is provably the top-k).
type Result struct {
	// URI identifies the fragment (its root node).
	URI string
	// Document is the URI of the containing document's root.
	Document string
	// Lower and Upper bracket the S3k score.
	Lower, Upper float64
}

// SearchInfo reports how a search ended.
type SearchInfo struct {
	// Exact is true when the answer is provably the top-k (threshold or
	// exhaustion stop); false after an any-time (budget) stop.
	Exact bool
	// Iterations is the exploration depth reached.
	Iterations int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Warm is true when a proximity-cache checkpoint let the search skip
	// its earliest exploration rounds.
	Warm bool
	// Degraded is true when a distributed search ran with WithPartial and
	// one or more shards had no live replica: the answer covers only the
	// shards in ServedShards. Always false for local instances and for
	// full-coverage distributed searches.
	Degraded bool
	// ServedShards lists the shards the answer covers when Degraded is
	// true (nil otherwise).
	ServedShards []int
}

type searchConfig struct {
	opts    core.Options
	partial bool
}

// Option customises a search.
type Option func(*searchConfig)

// WithK sets the number of results (default 10).
func WithK(k int) Option { return func(c *searchConfig) { c.opts.K = k } }

// WithGamma sets the social damping factor γ > 1 (default 1.5). Larger
// values give distant parts of the network more influence — and make
// searches slower.
func WithGamma(gamma float64) Option {
	return func(c *searchConfig) { c.opts.Params.Gamma = gamma }
}

// WithEta sets the structural damping factor η ∈ (0,1) (default 0.8): a
// connection due to a fragment at depth d below a candidate counts η^d.
func WithEta(eta float64) Option {
	return func(c *searchConfig) { c.opts.Params.Eta = eta }
}

// WithBudget enables any-time termination: the search returns its best
// current answer when the budget expires.
func WithBudget(d time.Duration) Option {
	return func(c *searchConfig) { c.opts.Budget = d }
}

// WithMaxIterations caps the exploration depth (any-time termination).
func WithMaxIterations(n int) Option {
	return func(c *searchConfig) { c.opts.MaxIterations = n }
}

// WithWorkers parallelises candidate scoring across goroutines.
func WithWorkers(n int) Option {
	return func(c *searchConfig) { c.opts.Workers = n }
}

// WithTrace records the search's span tree into t (nil disables). The
// recording is observational only: it never changes the answer.
func WithTrace(t *Trace) Option {
	return func(c *searchConfig) { c.opts.Trace = t }
}

// WithContext cancels the search when ctx does: the search checks it
// before every exploration round and, once ctx is done, stops with ctx's
// error (context.Canceled or context.DeadlineExceeded). A distributed
// search also abandons its postings fetches.
func WithContext(ctx context.Context) Option {
	return func(c *searchConfig) { c.opts.Ctx = ctx }
}

// WithPartial lets a distributed search answer from the surviving shards
// when some shard has no live replica, instead of failing. A degraded
// answer is flagged in SearchInfo (Degraded, ServedShards); with full
// coverage the answer is identical to a plain search. Local instances
// always have full coverage, so the option is a no-op there.
func WithPartial() Option {
	return func(c *searchConfig) { c.partial = true }
}

// Search runs an S3k top-k search for the seeker.
func (i *Instance) Search(seekerURI string, keywords []string, opts ...Option) ([]Result, error) {
	rs, _, err := i.SearchInfoed(seekerURI, keywords, opts...)
	return rs, err
}

// SearchInfoed is Search returning termination information as well.
func (i *Instance) SearchInfoed(seekerURI string, keywords []string, opts ...Option) ([]Result, SearchInfo, error) {
	cfg := searchConfig{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	seeker, ok := i.in.NIDOf(seekerURI)
	if !ok {
		return nil, SearchInfo{}, fmt.Errorf("s3: unknown seeker %q", seekerURI)
	}
	if pc := i.prox.Load(); pc != nil {
		cfg.opts.ProxCache = pc.c
	}
	cfg.opts.Obs = i.obsm.Load()
	i.searches.Add(1)
	rs, stats, err := i.eng.Search(seeker, keywords, cfg.opts)
	if err != nil {
		return nil, SearchInfo{}, err
	}
	i.rounds.Add(uint64(stats.Iterations))
	return mapResults(i.in, rs), mapSearchInfo(stats), nil
}

// mapResults converts engine results to the public form, resolving each
// fragment's containing document.
func mapResults(in *graph.Instance, rs []core.Result) []Result {
	out := make([]Result, 0, len(rs))
	for _, r := range rs {
		docURI := r.URI
		if root := in.DocRootOf(r.Doc); root != graph.NoNID {
			docURI = in.URIOf(root)
		}
		out = append(out, Result{URI: r.URI, Document: docURI, Lower: r.Lower, Upper: r.Upper})
	}
	return out
}

func mapSearchInfo(stats core.Stats) SearchInfo {
	return SearchInfo{
		Exact:      stats.Reason == core.StopThreshold || stats.Reason == core.StopExhausted || stats.Reason == core.StopNoMatch,
		Iterations: stats.Iterations,
		Elapsed:    stats.Elapsed,
		Warm:       stats.ResumedDepth > 0,
	}
}

// Extension returns the semantic extension of a keyword in this instance's
// ontology: the keyword's stemmed form plus every sub-class, sub-property
// and instance of it (Definition 2.1 of the paper).
func (i *Instance) Extension(keyword string) []string {
	return extension(i.in, keyword)
}

func extension(in *graph.Instance, keyword string) []string {
	ks := in.Analyzer().Keywords(keyword)
	if len(ks) == 0 {
		return nil
	}
	id, ok := in.Dict().Lookup(ks[0])
	if !ok {
		return []string{ks[0]}
	}
	var out []string
	for _, e := range in.Ontology().Ext(id) {
		out = append(out, in.Dict().String(e))
	}
	return out
}
