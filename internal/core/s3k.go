// Package core implements S3k, the top-k keyword-search algorithm of the
// paper (§4), over an S3 instance and its connection index.
//
// The engine follows Algorithm 1 with the optimisations of §5.2:
//
//   - the graph is explored breadth-first from the seeker through the
//     normalised transition matrix (borderProx vectors instead of the
//     borderPath table);
//   - candidate documents are discovered at component grain: when the
//     border first touches a node of a component matching every query
//     keyword, all documents of that component satisfying the conjunctive
//     keyword condition become candidates (GetDocuments);
//   - every candidate carries a [lower, upper] score interval, refined each
//     iteration from the bounded social proximity (ComputeCandidateBounds);
//   - a threshold bounds the best possible score of documents in components
//     not yet reached;
//   - the search stops when a provably correct top-k exists (Algorithm 2)
//     or, in any-time mode, when the iteration/time budget is exhausted
//     (Theorem 4.3).
//
// One deliberate deviation from the paper's presentation: instead of
// physically deleting dominated candidates (CleanCandidatesList), the
// engine recomputes a greedy "kept" selection every iteration. Permanent
// deletion based on a dominating vertical neighbour is unsound while score
// intervals still overlap — the dominator can itself be excluded later by
// an even better neighbour, resurrecting the dominated document (see
// TestSiblingResurrection in the tests). Recomputing the selection each
// round preserves the paper's pruning effect on the stop condition while
// remaining provably safe.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/proxcache"
	"s3/internal/score"
)

// Options configure one search.
type Options struct {
	// K is the number of results (top-k).
	K int
	// Params are the score damping factors (γ, η).
	Params score.Params
	// MaxIterations caps exploration depth; 0 means unlimited. When the
	// cap is hit the engine returns the current best answer (any-time
	// termination).
	MaxIterations int
	// Budget caps wall-clock time; 0 means unlimited (any-time
	// termination as well).
	Budget time.Duration
	// Workers parallelises candidate bound computation (§5.2 runs eight
	// threads; we size by GOMAXPROCS). 0 or 1 disables parallelism.
	Workers int
	// ProxCache, when non-nil, caches seeker-proximity checkpoints across
	// searches: exploration resumes from the deepest cached frontier for
	// (seeker, Params) and the final frontier is published back after the
	// stop condition fires. Cached replay performs the identical
	// floating-point operations of a cold exploration, so answers —
	// documents, order and score intervals — are byte-identical with and
	// without the cache.
	ProxCache *proxcache.Cache
	// Trace, when non-nil, records the search's stages (resolution, each
	// exploration round) as spans under the trace's root. Tracing is
	// observational only: it never changes the answer.
	Trace *obs.Trace
	// Obs, when non-nil, receives the search's metrics observations
	// (rounds per search, per-round latency).
	Obs *obs.SearchMetrics
	// Ctx, when non-nil, cancels the search: it is checked before every
	// round (CoordOptions.Ctx), and a cancelled search returns Ctx's error.
	Ctx context.Context
}

// DefaultOptions returns a top-10 search with default damping.
func DefaultOptions() Options {
	return Options{K: 10, Params: score.DefaultParams()}
}

// Result is one answer document with its score interval. After a
// non-any-time stop, Lower and Upper bracket the exact score tightly
// enough that the answer set is provably a top-k answer.
type Result struct {
	Doc   graph.NID
	URI   string
	Lower float64
	Upper float64
}

// StopReason explains why the search ended.
type StopReason string

const (
	// StopThreshold: the Algorithm 2 condition held — the answer is exact.
	StopThreshold StopReason = "threshold"
	// StopExhausted: the whole reachable graph was explored — the answer
	// is exact.
	StopExhausted StopReason = "exhausted"
	// StopBudget: any-time termination by time or iteration budget.
	StopBudget StopReason = "budget"
	// StopNoMatch: no component matches every query keyword.
	StopNoMatch StopReason = "nomatch"
	// StopPrecision: score intervals shrank below the floating-point
	// precision floor; remaining ties are unbreakable (Theorem 4.2's
	// finite-precision tie breaking).
	StopPrecision StopReason = "precision"
)

// Stats reports the work performed by one search.
type Stats struct {
	Iterations        int
	NodesReached      int
	ComponentsMatched int
	ComponentsReached int
	Candidates        int
	Reason            StopReason
	Elapsed           time.Duration
	// ResumedDepth is how many exploration rounds a proximity-cache hit
	// let the search skip (0 on a cold exploration) — the signal that
	// classifies a search as warm.
	ResumedDepth int
}

// Engine answers queries over one instance. It is immutable (the pool
// aside) and safe for concurrent Search calls.
type Engine struct {
	in *graph.Instance
	ix *index.Index

	// iters recycles the proximity iterators of the searches run over this
	// engine (see LocalExecutor.iter): a search takes one, with its
	// instance-sized work vectors, and its End puts it back. The pool is
	// shared only by the engines WithIndex and WithShardLoad derive, which
	// run over the same instance, so a vector never serves another
	// instance, let alone one of another size.
	iters *sync.Pool

	// load, when non-nil, counts every completed search on the shards of
	// owner's table that hold a component the search matched.
	load  *ShardLoad
	owner []int32
}

// NewEngine pairs an instance with its connection index.
func NewEngine(in *graph.Instance, ix *index.Index) *Engine {
	return &Engine{in: in, ix: ix, iters: new(sync.Pool)}
}

// WithIndex returns an engine over the same instance with another
// connection index — one of the instance's, or one built over it from
// fetched postings — sharing this engine's iterator pool, so a process
// that builds an index per search still recycles its iterators.
func (e *Engine) WithIndex(ix *index.Index) *Engine {
	return &Engine{in: e.in, ix: ix, iters: e.iters}
}

// WithShardLoad returns an engine like e, sharing its iterator pool,
// whose searches also count on load: each completed search adds itself to
// the shards (owner maps a component to its shard) holding a component it
// matched, from the matched list its executor computed (ShardLoad.Add).
func (e *Engine) WithShardLoad(owner []int32, load *ShardLoad) *Engine {
	return &Engine{in: e.in, ix: e.ix, iters: e.iters, load: load, owner: owner}
}

// Instance returns the engine's instance.
func (e *Engine) Instance() *graph.Instance { return e.in }

// Index returns the engine's connection index.
func (e *Engine) Index() *index.Index { return e.ix }

// KeywordGroups resolves raw query keywords to their stemmed semantic
// extensions (Definition 2.1). The keyword space K of the model contains
// "all the URIs, plus the stemmed version of all literals" (§2): a query
// keyword matching the vocabulary verbatim (a URI, hashtag, entity
// mention...) is used as-is; otherwise it runs through the text pipeline.
// The boolean is false when some keyword can never match (it does not
// occur in the instance vocabulary at all), which makes the conjunctive
// query empty.
func (e *Engine) KeywordGroups(keywords []string) ([][]dict.ID, bool, error) {
	return ResolveKeywordGroups(e.in, keywords)
}

// Search runs S3k for the query (seeker, keywords) and returns the top-k
// answer (Definition 3.2): the k best-scoring documents such that no
// result is a vertical neighbour of a better one. It validates the query,
// resolves its keywords, runs Coordinate over one LocalExecutor and maps
// the selection to Results.
func (e *Engine) Search(seeker graph.NID, keywords []string, opts Options) ([]Result, Stats, error) {
	start := time.Now()
	in := e.in
	if err := checkQuery(in, seeker, opts.K); err != nil {
		return nil, Stats{}, err
	}
	root := opts.Trace.Span()
	resolve := root.StartChild("resolve")
	groups, possible, err := ResolveKeywordGroups(in, keywords)
	resolve.End()
	if err != nil {
		return nil, Stats{}, err
	}
	if !possible {
		return nil, Stats{Reason: StopNoMatch, Elapsed: time.Since(start)}, nil
	}

	x := NewShardExecutor(e, opts.Workers).WithProxCache(opts.ProxCache).WithTracing(opts.Trace != nil)
	sel, stats, err := Coordinate([]ShardExecutor{x},
		SearchSpec{Seeker: seeker, Groups: groups, K: opts.K, Params: opts.Params},
		CoordOptions{
			Ctx:           opts.Ctx,
			MaxIterations: opts.MaxIterations,
			Budget:        opts.Budget,
			Start:         start,
			Trace:         opts.Trace,
			Obs:           opts.Obs,
		})
	if err != nil {
		return nil, stats, err
	}
	if e.load != nil {
		e.load.Add(e.owner, x.Matched(), stats.Iterations)
	}
	stats.ResumedDepth = x.ResumedDepth()
	root.SetInt("resumed_depth", int64(stats.ResumedDepth))
	out := make([]Result, len(sel))
	for i, c := range sel {
		out[i] = Result{Doc: c.Doc, URI: in.URIOf(c.Doc), Lower: c.Lower, Upper: c.Upper}
	}
	return out, stats, nil
}

// checkQuery is the query validation every entry point shares: a positive
// k and a seeker that is a user node of the instance.
func checkQuery(in *graph.Instance, seeker graph.NID, k int) error {
	if k <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", k)
	}
	if int(seeker) < 0 || int(seeker) >= in.NumNodes() || in.KindOf(seeker) != graph.KindUser {
		return fmt.Errorf("core: seeker must be a user node")
	}
	return nil
}

// WarmProximity pre-explores a seeker's social neighbourhood to the given
// depth (bounded by graph exhaustion and the precision floor) and
// publishes the frontier into the cache, deepening any existing
// checkpoint, on a pooled iterator like a search's. The next search for
// (seeker, params) replays the recorded depths instead of propagating the
// matrix. It returns the depth now covered by the cache for the key (0
// when warming is not possible) and whether this call actually deepened
// it — a no-op on an already-covered key reports seeded == false.
func (e *Engine) WarmProximity(pc *proxcache.Cache, seeker graph.NID, params score.Params, maxDepth int) (depth int, seeded bool) {
	if pc == nil || maxDepth <= 0 {
		return 0, false
	}
	if int(seeker) < 0 || int(seeker) >= e.in.NumNodes() || e.in.KindOf(seeker) != graph.KindUser {
		return 0, false
	}
	if err := params.Validate(); err != nil {
		return 0, false
	}
	it, key, covered := openIterator(e.iters, e.in, seeker, params, pc)
	for !it.Done() && it.N() < maxDepth && it.TailBound() >= 1e-15 {
		it.Step()
	}
	// Nothing is new when the cache already covered maxDepth, or the graph
	// was exhausted within the covered depth.
	depth = it.RecordedDepth()
	closeIterator(e.iters, it, pc, key, covered)
	return depth, depth > covered
}

// CandidateCount returns how many distinct documents satisfy the
// conjunctive keyword condition of the given groups, across all matching
// components — the "candidates examined" notion used by the §5.4
// semantic-reachability measure.
func (e *Engine) CandidateCount(groups [][]dict.ID) int {
	n := 0
	for _, comp := range e.ix.CompsForGroups(groups) {
		n += len(e.ix.CandidatesInComp(comp, groups))
	}
	return n
}
