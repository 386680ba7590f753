// LocalExecutor: the rounds of one search, in process.
//
// An executor holds everything about a search: the seeker's proximity
// iterator (resumed from, and published back to, the proximity cache
// when one is wired), the scorer over its engine's index, the candidate
// list with its score intervals, and the greedy selection. Each round it
// steps the iterator once and admits, in discovery order, the matching
// components the step reached. The iterator's state at a depth is a
// function of the depth alone (one canonical summation order, see
// internal/score), so round responses are byte-identical however the
// instance's components are split between indexes.
package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/proxcache"
	"s3/internal/score"
)

// term is one connection of a candidate: η^|pos| times the proximity of
// src.
type term struct {
	eta float64
	src graph.NID
}

// cand is a candidate document with its per-group connection terms.
type cand struct {
	d     graph.NID
	terms [][]term
	lower float64
	upper float64
}

// LocalExecutor runs the rounds of one search over an engine. It serves
// one search at a time (Begin … End) and may be reused for the next.
type LocalExecutor struct {
	e       *Engine
	workers int

	// pc, when non-nil, resumes the iterator from the deepest cached
	// frontier when it is opened and publishes the deepened frontier at
	// End.
	pc *proxcache.Cache

	// traced enables per-call span recording; span holds the most recent
	// call's subtree until TakeSpan collects it.
	traced bool
	span   *obs.Span

	// Per-search state, installed by Begin and dropped by End.
	sc       *score.Scorer // nil outside a search
	seeker   graph.NID
	params   score.Params
	groups   [][]dict.ID
	k        int
	eps      float64
	it       *score.Iterator // opened on first need, see iter
	ckey     proxcache.Key
	resumedN int
	reached  int // nodes discovered so far
	// comps lists the components matching every query keyword, ascending;
	// it outlives End (see Matched). pending holds those not yet
	// discovered: a discovery admits its component once and removes it.
	comps    []int32
	pending  map[int32]struct{}
	admitted int // matched components discovered so far
	cands    []*cand

	// Per-search slabs behind cands: candidates, their per-group list
	// headers and their connection terms are carved out of chunks (see
	// carve) instead of being allocated one by one, so a search's
	// allocation count grows with the logarithm of its candidate count.
	// docs / candScratch / evs are admitComponent's enumeration scratch.
	candSlab    []cand
	listSlab    [][]term
	termSlab    []term
	docs        []graph.NID
	candScratch index.CandScratch
	evs         [][]index.Event

	// Refreshed every round: the greedy selection and the first candidate
	// whose relative order is still uncertain (nil when the selection is
	// trustworthy).
	kept      []*cand
	uncertain *cand

	// order is greedySelect's persistent sort scratch: cands is append-only,
	// so the copy is refreshed only on rounds that admitted new candidates
	// and merely re-sorted (by the freshly computed bounds) otherwise.
	order []*cand
}

// NewShardExecutor returns an executor over the engine: its first round
// opens a proximity iterator for the spec's seeker, and every Round
// advances it one layer. workers parallelises candidate bound computation
// (0 or 1: serial).
func NewShardExecutor(e *Engine, workers int) *LocalExecutor {
	return &LocalExecutor{e: e, workers: workers}
}

// WithProxCache wires a seeker-proximity checkpoint cache: the iterator
// resumes from it when opened and publishes back at End. Replayed depths
// are bit-identical to a fresh exploration, so round responses do not
// change.
func (x *LocalExecutor) WithProxCache(pc *proxcache.Cache) *LocalExecutor {
	x.pc = pc
	return x
}

// WithTracing enables per-call span recording: each Begin, Round and
// Finalize builds a span subtree (with step / admit / bounds / select
// stage children), collected by Coordinate's trace. Tracing is
// observational only.
func (x *LocalExecutor) WithTracing(on bool) *LocalExecutor {
	x.traced = on
	return x
}

// ResumedDepth reports how many exploration rounds the iterator of the
// current (or most recently ended) search replayed from a cached
// checkpoint: 0 on a cold start, or when the search never explored.
func (x *LocalExecutor) ResumedDepth() int { return x.resumedN }

// Matched returns the components matching every query keyword of the
// current (or most recently ended) search, ascending: the list Begin
// computed. It must not be modified.
func (x *LocalExecutor) Matched() []int32 { return x.comps }

// TakeSpan implements the coordinator's span collection: it returns the
// span subtree recorded by the most recent protocol call and clears it
// (nil when tracing is off).
func (x *LocalExecutor) TakeSpan() *obs.Span {
	sp := x.span
	x.span = nil
	return sp
}

// Begin implements ShardExecutor. The spec is validated here as well as
// at the query entry points.
func (x *LocalExecutor) Begin(spec SearchSpec) (BeginInfo, error) {
	if err := checkQuery(x.e.in, spec.Seeker, spec.K); err != nil {
		return BeginInfo{}, err
	}
	if len(spec.Groups) == 0 {
		return BeginInfo{}, fmt.Errorf("core: empty keyword groups")
	}
	var sp *obs.Span
	if x.traced {
		sp = obs.NewSpan("exec.begin")
	}
	sc, err := score.NewScorer(x.e.in, x.e.ix, spec.Params, spec.Groups)
	if err != nil {
		return BeginInfo{}, err
	}
	comps := x.e.ix.CompsForGroups(spec.Groups)
	x.pending = make(map[int32]struct{}, len(comps))
	for _, c := range comps {
		x.pending[c] = struct{}{}
	}
	x.sc, x.seeker, x.params, x.groups, x.k, x.eps = sc, spec.Seeker, spec.Params, spec.Groups, spec.K, spec.Epsilon
	x.comps, x.resumedN = comps, 0
	info := BeginInfo{Matched: len(comps), GroupMasses: make([][]int32, len(spec.Groups))}
	for gi, group := range spec.Groups {
		info.GroupMasses[gi] = make([]int32, len(group))
		for j, k := range group {
			info.GroupMasses[gi][j] = int32(x.e.ix.MaxCompEvents(k))
		}
	}
	if sp != nil {
		sp.SetInt("matched", int64(len(comps)))
		sp.End()
		x.span = sp
	}
	return info, nil
}

// iter returns the search's proximity iterator, opening it on first use.
func (x *LocalExecutor) iter() *score.Iterator {
	if x.it == nil {
		x.it, x.ckey, x.resumedN = openIterator(x.e.iters, x.e.in, x.seeker, x.params, x.pc)
	}
	return x.it
}

// Round implements ShardExecutor.
func (x *LocalExecutor) Round() (RoundInfo, error) {
	if x.sc == nil {
		return RoundInfo{}, fmt.Errorf("core: Round without Begin")
	}
	var sp *obs.Span
	if x.traced {
		sp = obs.NewSpan("exec.round")
	}
	step := sp.StartChild("step")
	discovered := x.iter().Step()
	x.reached += len(discovered)
	step.End()
	// With no matching components there is nothing to admit, bound or
	// select; the executor only reports the exploration's progress.
	if len(x.comps) > 0 {
		admit := sp.StartChild("admit")
		// Users have no component; once every match is admitted, the rest
		// of the exploration has nothing to look up.
		for i := 0; i < len(discovered) && len(x.pending) > 0; i++ {
			if c := x.e.in.CompOf(discovered[i]); c >= 0 {
				if _, ok := x.pending[c]; ok {
					delete(x.pending, c)
					x.admitComponent(c)
				}
			}
		}
		admit.End()
		x.refresh(sp)
	}
	info := x.roundInfo()
	if sp != nil {
		sp.SetInt("n", int64(info.N))
		sp.SetInt("admitted", int64(x.admitted))
		sp.SetInt("candidates", int64(len(x.cands)))
		sp.SetInt("kept", int64(len(x.kept)))
		sp.End()
		x.span = sp
	}
	return info, nil
}

// Finalize implements ShardExecutor.
func (x *LocalExecutor) Finalize() (RoundInfo, error) {
	if x.sc == nil {
		return RoundInfo{}, fmt.Errorf("core: Finalize without Begin")
	}
	var sp *obs.Span
	if x.traced {
		sp = obs.NewSpan("exec.finalize")
	}
	x.refresh(sp)
	info := x.roundInfo()
	if sp != nil {
		sp.SetInt("candidates", int64(len(x.cands)))
		sp.SetInt("kept", int64(len(x.kept)))
		sp.End()
		x.span = sp
	}
	return info, nil
}

// End implements ShardExecutor: the iterator's frontier goes back to the
// cache if the search deepened it, and the iterator to the pool
// (closeIterator); the per-search state is dropped. Idempotent.
func (x *LocalExecutor) End() {
	if x.it != nil {
		closeIterator(x.e.iters, x.it, x.pc, x.ckey, x.resumedN)
	}
	x.it, x.sc, x.groups, x.pending = nil, nil, nil, nil
	x.reached, x.admitted = 0, 0
	x.cands, x.kept, x.uncertain, x.order = nil, nil, nil, nil
	x.candSlab, x.listSlab, x.termSlab = nil, nil, nil
}

// openIterator readies a search's proximity iterator — a pooled one, so a
// search allocates no instance-sized vector once the pool is warm:
// resumed from the deepest cached checkpoint when there is a cache
// (recording either way, so the search can publish its final frontier
// back), plain otherwise. Resuming is transparent to the rounds — replayed
// Steps yield bit-identical prox≤n and discovery order, they just skip the
// matrix propagation. The returned depth is what the cache already covers
// (0 on a cold start); publication is worthwhile only beyond it. Every
// opened iterator goes back through closeIterator.
func openIterator(pool *sync.Pool, in *graph.Instance, seeker graph.NID, params score.Params, pc *proxcache.Cache) (*score.Iterator, proxcache.Key, int) {
	it, _ := pool.Get().(*score.Iterator)
	if it == nil {
		it = new(score.Iterator)
	}
	if pc == nil {
		it.Reset(in, params, seeker, false)
		return it, proxcache.Key{}, 0
	}
	ckey := proxcache.Key{Seeker: seeker, Params: params}
	if cp := pc.Get(ckey, in); cp != nil {
		if err := it.Resume(in, cp); err == nil {
			return it, ckey, cp.N()
		}
	}
	it.Reset(in, params, seeker, true)
	return it, ckey, 0
}

// closeIterator ends an exploration opened by openIterator: its frontier
// goes to the cache — only when it deepened what the cache covered (one
// that stopped within the resumed depth would copy the layers just to lose
// the deepen-only race against itself) — and the iterator back to the
// pool, holding nothing of the checkpoint it resumed or published: a
// pooled iterator must not pin an entry the cache evicts or purges, nor
// offer its next user a snapshot the cache owns as a work vector.
// Publication is deepen-only, so concurrent searches racing to publish can
// only improve the cache.
func closeIterator(pool *sync.Pool, it *score.Iterator, pc *proxcache.Cache, ckey proxcache.Key, covered int) {
	if pc != nil && it.RecordedDepth() > covered {
		pc.Put(ckey, it.Checkpoint())
	}
	it.Release()
	pool.Put(it)
}

// refresh recomputes the candidates' score intervals at the exploration's
// current tail and the selection over them.
func (x *LocalExecutor) refresh(sp *obs.Span) {
	it := x.iter()
	bounds := sp.StartChild("bounds")
	x.computeBounds(it.TailBound(), it.AllProx())
	bounds.End()
	sel := sp.StartChild("select")
	x.kept, x.uncertain = x.greedySelect()
	sel.End()
}

// roundInfo reports the executor's state after a round.
func (x *LocalExecutor) roundInfo() RoundInfo {
	it := x.iter()
	info := RoundInfo{
		Kept:       make([]CandMeta, len(x.kept)),
		MaxOther:   x.maxOtherUpper(x.kept),
		Admitted:   x.admitted,
		Candidates: len(x.cands),
		Reached:    x.reached,
		N:          it.N(),
		Tail:       it.TailBound(),
		SourceTail: it.SourceTailBound(),
		Done:       it.Done(),
	}
	for i, c := range x.kept {
		info.Kept[i] = CandMeta{Doc: c.d, Lower: c.lower, Upper: c.upper}
	}
	if u := x.uncertain; u != nil {
		info.Uncertain = &CandMeta{Doc: u.d, Lower: u.lower, Upper: u.upper}
	}
	return info
}

// slabChunk is the size of a search's first slab chunk; each further
// chunk doubles.
const slabChunk = 64

// reserve makes room for n more elements in *slab's current chunk,
// starting a new chunk — twice the size of the last, at least n — when
// there is none. A chunk left behind stays alive through the slices cut
// from it, so earlier cuts never move.
func reserve[T any](slab *[]T, n int) {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, slabChunk, 2*cap(*slab)))
	}
}

// carve cuts n zeroed elements off the end of *slab.
func carve[T any](slab *[]T, n int) []T {
	reserve(slab, n)
	s := *slab
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// admitComponent implements GetDocuments: all documents of the component
// satisfying the conjunctive keyword condition become candidates, with
// their connection terms resolved once.
func (x *LocalExecutor) admitComponent(comp int32) {
	x.admitted++
	in := x.e.in
	x.evs = x.evs[:0]
	for gi := range x.groups {
		x.evs = append(x.evs, x.sc.GroupEvents(comp, gi))
	}
	x.docs = x.e.ix.AppendCandidatesInComp(x.docs[:0], comp, x.groups, &x.candScratch)
	for _, d := range x.docs {
		c := &carve(&x.candSlab, 1)[0]
		c.d, c.terms = d, carve(&x.listSlab, len(x.groups))
		for gi, evs := range x.evs {
			// A group's list is at most its events long, so with that much
			// room reserved the appends below never leave the chunk.
			reserve(&x.termSlab, len(evs))
			start := len(x.termSlab)
			for _, ev := range evs {
				rel, ok := in.PosLen(d, ev.Frag)
				if !ok {
					continue
				}
				src := ev.Src
				if ev.Type == index.Contains {
					src = d
				}
				x.termSlab = append(x.termSlab, term{eta: x.sc.EtaPow(int(rel)), src: src})
			}
			end := len(x.termSlab)
			c.terms[gi] = x.termSlab[start:end:end]
		}
		x.cands = append(x.cands, c)
	}
}

// computeBounds refreshes every candidate's score interval from the
// given bounded proximity vector (ComputeCandidateBounds).
func (x *LocalExecutor) computeBounds(tail float64, all []float64) {
	workers := x.workers
	if workers <= 1 || len(x.cands) < 64 {
		x.boundRange(0, len(x.cands), tail, all)
		return
	}
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	chunk := (len(x.cands) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(x.cands))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			x.boundRange(lo, hi, tail, all)
		}(lo, hi)
	}
	wg.Wait()
}

func (x *LocalExecutor) boundRange(lo, hi int, tail float64, all []float64) {
	for _, c := range x.cands[lo:hi] {
		c.lower, c.upper = 1, 1
		for _, terms := range c.terms {
			var mLo, mHi float64
			for _, t := range terms {
				p := all[t.src]
				mLo += t.eta * p
				mHi += t.eta * math.Min(1, p+tail)
			}
			c.lower *= mLo
			c.upper *= mHi
		}
	}
}

// candOrder is the canonical candidate order: upper bound descending,
// ties by node id. Node ids are global to the instance, so the order is
// identical whether candidates are walked by one executor or merged
// across several (metaBefore is the same order over candidate
// summaries).
func candOrder(a, b *cand) int {
	switch {
	case a.upper > b.upper:
		return -1
	case a.upper < b.upper:
		return 1
	}
	return cmp.Compare(a.d, b.d)
}

// greedySelect computes the current best-possible answer: candidates are
// visited by decreasing upper bound (ties by node id) and greedily
// selected, skipping any candidate that is certainly dominated by an
// already-selected vertical neighbour. If a candidate meets a selected
// neighbour whose relative order is still uncertain, the walk stops and
// returns that candidate (nil when the selection is trustworthy): the
// selection so far is valid but must not be extended, and the search must
// continue.
func (x *LocalExecutor) greedySelect() ([]*cand, *cand) {
	if len(x.order) != len(x.cands) {
		x.order = append(x.order[:0], x.cands...)
	}
	// The comparator is a total order (ties broken by unique node id), so
	// re-sorting the previous round's permutation under the new bounds
	// yields the same slice a fresh copy would.
	slices.SortFunc(x.order, candOrder)
	sel := x.kept[:0] // last round's selection is spent: roundInfo copied it out
	for _, c := range x.order {
		if c.upper <= x.eps {
			// A document none of whose connection sources is socially
			// reachable scores zero and is not a meaningful answer.
			break
		}
		dominated := false
		uncertain := false
		for _, t := range sel {
			if !x.e.in.VerticalNeighbors(t.d, c.d) {
				continue
			}
			if t.lower >= c.upper-x.eps {
				// t certainly at least as good (or an unbreakable tie,
				// resolved deterministically in t's favour by the sort).
				dominated = true
				break
			}
			uncertain = true
			break
		}
		if uncertain {
			return sel, c
		}
		if dominated {
			continue
		}
		sel = append(sel, c)
		if len(sel) == x.k {
			break
		}
	}
	return sel, nil
}

// maxOtherUpper returns the best upper bound among candidates outside the
// selection that are not certainly dominated by a selected neighbour. It
// runs every round; sel is at most k entries, so membership is a linear
// scan, and only for candidates that would actually raise the bound.
func (x *LocalExecutor) maxOtherUpper(sel []*cand) float64 {
	maxOther := 0.0
next:
	for _, c := range x.cands {
		if c.upper <= maxOther {
			continue
		}
		for _, t := range sel {
			if t == c || (t.lower >= c.upper-x.eps && x.e.in.VerticalNeighbors(t.d, c.d)) {
				continue next
			}
		}
		maxOther = c.upper
	}
	return maxOther
}
