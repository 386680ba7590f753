// LocalExecutor: one member shard's half of the round protocol.
//
// A member holds everything about a search that is private to one shard —
// the scorer over the shard's index slice, the candidate list with its
// score intervals, and the shard-local greedy selection — and presents it
// as a ShardExecutor. Everything the members of a process share (the
// proximity iterator, its cache checkpoint, the routing of a round's
// discoveries to the member owning them) belongs to their HostExecutor;
// a member asks its host to bring the exploration to its round and then
// admits, bounds and selects over its own components. Per-member work
// depends only on the iterator's output, so round responses are
// byte-identical however members are grouped onto hosts.
package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// LocalExecutor runs one member shard's rounds in-process. Members are
// created by their host; NewShardExecutor returns the member of a
// one-member host.
type LocalExecutor struct {
	host    *HostExecutor
	idx     int // ordinal in host.members
	e       *Engine
	workers int

	// touched / rounds, when non-nil, receive the shard's fan-out and
	// per-round work counts: touched increments on a Begin that matched
	// components, rounds on every round that carried candidates — the load
	// signal behind /stats and rebalancing.
	touched *atomic.Uint64
	rounds  *atomic.Uint64

	// traced enables per-call span recording; span holds the most recent
	// call's subtree until TakeSpan collects it.
	traced bool
	span   *obs.Span

	// Per-search state, installed by Begin and dropped by the host's End.
	sc       *score.Scorer // nil outside a search
	groups   [][]dict.ID
	k        int
	eps      float64
	matched  int // components matching every query keyword
	admitted int // of those, discovered so far
	round    int
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

	// Refreshed every round: the shard-local greedy selection and the first
	// candidate whose relative order is still uncertain (nil when the local
	// selection is trustworthy).
	kept      []*cand
	uncertain *cand

	// order is greedySelect's persistent sort scratch: cands is append-only,
	// so the copy is refreshed only on rounds that admitted new candidates
	// and merely re-sorted (by the freshly computed bounds) otherwise.
	order []*cand
}

// NewShardExecutor returns the executor of a one-member host over the
// engine: Begin opens a private proximity iterator for the spec's seeker,
// and every Round advances it one layer. workers parallelises candidate
// bound computation (0 or 1: serial).
func NewShardExecutor(e *Engine, workers int) *LocalExecutor {
	return newHost([]*Engine{e}, workers).members[0]
}

// WithProxCache wires a seeker-proximity checkpoint cache into the
// member's host; see HostExecutor.WithProxCache.
func (x *LocalExecutor) WithProxCache(pc *proxcache.Cache) *LocalExecutor {
	x.host.pc = pc
	return x
}

// WithTracing enables per-call span recording on the member's host; see
// HostExecutor.WithTracing.
func (x *LocalExecutor) WithTracing(on bool) *LocalExecutor {
	x.host.WithTracing(on)
	return x
}

// TakeSpan implements the coordinator's span collection: it returns the
// span subtree recorded by the most recent protocol call and clears it
// (nil when tracing is off).
func (x *LocalExecutor) TakeSpan() *obs.Span {
	sp := x.span
	x.span = nil
	return sp
}

// Begin implements ShardExecutor. The spec may come off the wire, so it is
// validated here as well as at the query entry points.
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
	if err := x.host.join(x.idx, spec, comps); err != nil {
		return BeginInfo{}, err
	}
	if len(comps) > 0 && x.touched != nil {
		x.touched.Add(1)
	}
	x.sc, x.groups, x.k, x.eps = sc, spec.Groups, spec.K, spec.Epsilon
	x.matched = len(comps)
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

// Round implements ShardExecutor.
func (x *LocalExecutor) Round() (RoundInfo, error) {
	if x.sc == nil {
		return RoundInfo{}, fmt.Errorf("core: Round without Begin")
	}
	var sp *obs.Span
	if x.traced {
		sp = obs.NewSpan("exec.round")
	}
	x.round++
	step := sp.StartChild("step")
	rs := x.host.advance(x.round)
	step.End()
	// A member with no matching components has nothing to admit, bound or
	// select; it only mirrors the exploration's progress.
	if x.matched > 0 {
		admit := sp.StartChild("admit")
		for _, comp := range x.host.routed[x.idx] {
			x.admitComponent(comp)
		}
		admit.End()
		x.refresh(sp, rs)
	}
	if x.rounds != nil && len(x.cands) > 0 {
		x.rounds.Add(1)
	}
	info := x.roundInfo(rs)
	if sp != nil {
		sp.SetInt("n", int64(rs.n))
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
	rs := x.host.current()
	x.refresh(sp, rs)
	info := x.roundInfo(rs)
	if sp != nil {
		sp.SetInt("candidates", int64(len(x.cands)))
		sp.SetInt("kept", int64(len(x.kept)))
		sp.End()
		x.span = sp
	}
	return info, nil
}

// End implements ShardExecutor: it closes the host's search, publishing
// the explored frontier. The members of a host end together, so the call
// is idempotent across them.
func (x *LocalExecutor) End() { x.host.End() }

// reset drops the member's per-search state (host End).
func (x *LocalExecutor) reset() {
	x.sc, x.groups = nil, nil
	x.matched, x.admitted, x.round = 0, 0, 0
	x.cands, x.kept, x.uncertain, x.order = nil, nil, nil, nil
	x.candSlab, x.listSlab, x.termSlab = nil, nil, nil
}

// refresh recomputes the candidates' score intervals at the exploration's
// current tail and the shard-local selection over them.
func (x *LocalExecutor) refresh(sp *obs.Span, rs roundState) {
	bounds := sp.StartChild("bounds")
	x.computeBounds(rs.tail, rs.prox)
	bounds.End()
	sel := sp.StartChild("select")
	x.kept, x.uncertain = x.greedySelect()
	sel.End()
}

// roundInfo serializes the shard state after a round.
func (x *LocalExecutor) roundInfo(rs roundState) RoundInfo {
	info := RoundInfo{
		Kept:       make([]CandMeta, len(x.kept)),
		MaxOther:   x.maxOtherUpper(x.kept),
		Admitted:   x.admitted,
		Candidates: len(x.cands),
		Reached:    rs.reached,
		N:          rs.n,
		Tail:       rs.tail,
		SourceTail: rs.sourceTail,
		Done:       rs.done,
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
// ties by node id. Node ids are global across every projection of an
// instance, so the order is identical whether candidates are walked by
// one member or merged across several (metaBefore is the same order over
// candidate summaries).
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
