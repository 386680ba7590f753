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
	// ProxCache, when non-nil, caches seeker-proximity checkpoints across
	// searches: exploration resumes from the deepest cached frontier for
	// (seeker, Params) and the final frontier is published back after the
	// stop condition fires. Cached replay performs the identical
	// floating-point operations of a cold exploration, so answers —
	// documents, order and score intervals — are byte-identical with and
	// without the cache.
	ProxCache *proxcache.Cache
	// Trace, when non-nil, records the search's stages as spans under the
	// trace's root: resolve, begin, each exploration round (with its step,
	// admit, bounds and select) and finalize. Tracing is observational
	// only: it never changes the answer.
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

// Result is one answer document with its score interval. Lower and Upper
// always bracket the exact score. What a threshold or exhaustion stop
// certifies is the answer set: it is a top-k answer (Definition 3.2). The
// results come in the order the search selected them, upper bound
// descending (ties by node id), which need not be the exact-score order.
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
	// shared only by the engines WithIndex derives, which run over the
	// same instance, so a vector never serves another instance, let alone
	// one of another size.
	iters *sync.Pool
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
// result is a vertical neighbour of a better one. It is Query, then Run,
// then the selection's URIs.
func (e *Engine) Search(seeker graph.NID, keywords []string, opts Options) ([]Result, Stats, error) {
	start := time.Now()
	spec, possible, err := Query(e.in, seeker, keywords, opts.K, opts.Params, opts.Trace)
	if err != nil {
		return nil, Stats{}, err
	}
	if !possible {
		return nil, Stats{Reason: StopNoMatch, Elapsed: time.Since(start)}, nil
	}
	sel, stats, err := e.Run(spec, CoordOptions{
		Ctx:           opts.Ctx,
		MaxIterations: opts.MaxIterations,
		Budget:        opts.Budget,
		Start:         start,
		Trace:         opts.Trace,
		Obs:           opts.Obs,
	}, opts.ProxCache, nil)
	if err != nil {
		return nil, stats, err
	}
	out := make([]Result, len(sel))
	for i, c := range sel {
		out[i] = Result{Doc: c.Doc, URI: e.in.URIOf(c.Doc), Lower: c.Lower, Upper: c.Upper}
	}
	return out, stats, nil
}

// Query is the first half of every search, wherever its rounds run: it
// validates the query — a positive k and a seeker that is a user node of
// the instance — and resolves its keywords (ResolveKeywordGroups) under
// the trace's "resolve" span. possible is false when some keyword can
// never match, and the answer is then empty without a search.
func Query(in *graph.Instance, seeker graph.NID, keywords []string, k int, params score.Params, trace *obs.Trace) (spec SearchSpec, possible bool, err error) {
	if err := checkQuery(in, seeker, k); err != nil {
		return SearchSpec{}, false, err
	}
	resolve := trace.Span().StartChild("resolve")
	groups, possible, err := ResolveKeywordGroups(in, keywords)
	resolve.End()
	if err != nil || !possible {
		return SearchSpec{}, false, err
	}
	return SearchSpec{Seeker: seeker, Groups: groups, K: k, Params: params}, true, nil
}

// Run is the second half: Coordinate over one LocalExecutor on the
// engine's index — the executor recording its stage spans under
// copts.Trace's root when that is set, and resuming from and publishing
// to pc when it is non-nil. A completed search's stats report the depth
// pc let it skip. The selection is best-first; the caller resolves URIs.
//
// explored, when non-nil, is the search's iterator, taken with Explore
// for spec's seeker and params and stepped ahead of the search: Run
// rewinds it (score.Iterator.Rewind) and its rounds replay the recorded
// depths before they propagate further, so the answer is bit-identical
// to a cold search's. pc is then not used, and the search is not warm
// (Stats.ResumedDepth stays 0). Run owns explored on every path.
func (e *Engine) Run(spec SearchSpec, copts CoordOptions, pc *proxcache.Cache, explored *score.Iterator) ([]CandMeta, Stats, error) {
	x := &LocalExecutor{e: e, pc: pc, root: copts.Trace.Span()}
	if explored != nil {
		if explored.Seeker() != spec.Seeker || explored.Params() != spec.Params {
			e.Drop(explored)
			return nil, Stats{}, fmt.Errorf("core: explored iterator is not the search's seeker and params")
		}
		explored.Rewind()
		x.pc, x.it = nil, explored
	}
	sel, stats, err := Coordinate([]ShardExecutor{x}, spec, copts)
	if err != nil {
		return nil, stats, err
	}
	stats.ResumedDepth = x.resumedN
	copts.Trace.Span().SetInt("resumed_depth", int64(stats.ResumedDepth))
	return sel, stats, nil
}

// Explore takes a pooled recording iterator for a search of seeker under
// params, for the caller to step ahead of the search — on one goroutine
// at a time — and hand to Run, or to Drop if the search never runs. It
// returns nil when seeker is not a user node or params are invalid, which
// the search itself reports. Take it on the goroutine that runs the
// search, where End puts it back: taken on the stepping goroutine
// instead, a heap profile of the coordinator showed several times as
// many iterators' vectors live.
func (e *Engine) Explore(seeker graph.NID, params score.Params) *score.Iterator {
	if checkQuery(e.in, seeker, 1) != nil || params.Validate() != nil {
		return nil
	}
	it, _ := e.iters.Get().(*score.Iterator)
	if it == nil {
		it = new(score.Iterator)
	}
	it.Reset(e.in, params, seeker, true)
	return it
}

// Drop returns an iterator Explore handed out, which no Run took, to the
// pool, holding no recorded layer. A nil iterator is ignored.
func (e *Engine) Drop(it *score.Iterator) {
	if it != nil {
		closeIterator(e.iters, it, nil, proxcache.Key{}, 0)
	}
}

// checkQuery is the query validation of Query and LocalExecutor.Begin: a
// positive k and a seeker that is a user node of the instance.
func checkQuery(in *graph.Instance, seeker graph.NID, k int) error {
	if k <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", k)
	}
	if int(seeker) < 0 || int(seeker) >= in.NumNodes() || in.KindOf(seeker) != graph.KindUser {
		return fmt.Errorf("core: seeker must be a user node")
	}
	return nil
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
