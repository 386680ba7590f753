package topks

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"s3/internal/dict"
	"s3/internal/graph"
)

// Options configure one TopkS search.
type Options struct {
	// K is the answer size.
	K int
	// Alpha blends the social and content scores:
	// score = α·social + (1−α)·content. The paper evaluates α ∈
	// {0.25, 0.5, 0.75}.
	Alpha float64
	// Epsilon is the tie-breaking margin (default 1e-12).
	Epsilon float64
}

// Result is one TopkS answer item with its score interval at stop time.
type Result struct {
	Item  graph.NID
	URI   string
	Lower float64
	Upper float64
}

// Stats reports the work of one search.
type Stats struct {
	UsersVisited int
	Candidates   int
	Elapsed      time.Duration
	// Exhausted reports whether the user frontier was fully drained
	// (no early termination fired).
	Exhausted bool
}

// Engine runs TopkS searches over a converted UIT instance. It is
// immutable and safe for concurrent use.
type Engine struct {
	uit *UIT
}

// NewEngine wraps a converted instance.
func NewEngine(uit *UIT) *Engine { return &Engine{uit: uit} }

// UIT returns the underlying converted instance.
func (e *Engine) UIT() *UIT { return e.uit }

// uitItem is one candidate item during a search.
type uitItem struct {
	id        graph.NID
	content   float64 // static content score
	social    float64 // accumulated from visited taggers
	remaining int     // query-keyword taggers not yet visited
}

// lower/upper bound the final blended score given the frontier proximity
// (every unvisited tagger has proximity ≤ frontier).
func (c *uitItem) lower(alpha float64) float64 {
	return float64(alpha*c.social) + float64((1-alpha)*c.content)
}

func (c *uitItem) upper(alpha, frontier float64) float64 {
	return float64(alpha*(c.social+float64(frontier*float64(c.remaining)))) + float64((1-alpha)*c.content)
}

// userDist is the max-product Dijkstra frontier entry.
type userDist struct {
	user graph.NID
	prox float64
}

type userHeap []userDist

func (h userHeap) Len() int { return len(h) }
func (h userHeap) Less(i, j int) bool {
	if h[i].prox != h[j].prox {
		return h[i].prox > h[j].prox
	}
	return h[i].user < h[j].user
}
func (h userHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *userHeap) Push(x any)   { *h = append(*h, x.(userDist)) }
func (h *userHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search runs the TopkS algorithm: users are visited in decreasing order
// of best-single-path proximity (max-product Dijkstra over the social
// graph; this is the "shortest path" social model the paper contrasts
// with S3k's all-paths proximity). Each visited user's tags accrue to the
// social score of the items they tagged; item score intervals tighten as
// the frontier proximity drops, and the search stops as soon as the
// current top k provably dominates every other item.
func (e *Engine) Search(seeker graph.NID, keywords []dict.ID, opts Options) ([]Result, Stats, error) {
	start := time.Now()
	var stats Stats
	if opts.K <= 0 {
		return nil, stats, fmt.Errorf("topks: k must be positive, got %d", opts.K)
	}
	if opts.Alpha < 0 || opts.Alpha > 1 {
		return nil, stats, fmt.Errorf("topks: alpha must be in [0,1], got %v", opts.Alpha)
	}
	in := e.uit.in
	if int(seeker) < 0 || int(seeker) >= in.NumNodes() || in.KindOf(seeker) != graph.KindUser {
		return nil, stats, fmt.Errorf("topks: seeker must be a user node")
	}
	eps := opts.Epsilon
	if eps == 0 {
		eps = 1e-12
	}
	kwSet := make(map[dict.ID]struct{}, len(keywords))
	for _, k := range keywords {
		kwSet[k] = struct{}{}
	}

	// Candidates: items carrying any query keyword (disjunctive, as in
	// the UIT baselines); the content score is static.
	cands := make(map[graph.NID]*uitItem)
	for k := range kwSet {
		maxT := e.uit.MaxTaggers(k)
		if maxT == 0 {
			continue
		}
		for _, it := range e.uit.ItemsWithKw(k) {
			c := cands[it]
			if c == nil {
				c = &uitItem{id: it}
				cands[it] = c
			}
			t := e.uit.Taggers(it, k)
			c.content += float64(t) / float64(maxT)
			c.remaining += t
		}
	}
	stats.Candidates = len(cands)
	if len(cands) == 0 {
		stats.Elapsed = time.Since(start)
		return nil, stats, nil
	}
	list := make([]*uitItem, 0, len(cands))
	for _, c := range cands {
		list = append(list, c)
	}

	// Max-product Dijkstra over the user-user social edges.
	best := map[graph.NID]float64{seeker: 1}
	settled := make(map[graph.NID]bool)
	h := &userHeap{{user: seeker, prox: 1}}
	alpha := opts.Alpha

	// The stop test scans every candidate; with large disjunctive
	// candidate sets, testing after every settled user would dominate the
	// run time, so amortise it over a growing stride.
	stopStride := 1 + len(list)/64

	for h.Len() > 0 {
		ud := heap.Pop(h).(userDist)
		if settled[ud.user] {
			continue
		}
		settled[ud.user] = true
		stats.UsersVisited++

		for _, ik := range e.uit.TriplesOf(ud.user) {
			if _, ok := kwSet[ik.Kw]; !ok {
				continue
			}
			if c := cands[ik.Item]; c != nil {
				c.social += ud.prox
				c.remaining--
			}
		}

		// Relax neighbours first so that `frontier` can drop to the next
		// heap maximum for the stop test.
		for _, edge := range in.OutEdges(ud.user) {
			if in.KindOf(edge.To) != graph.KindUser {
				continue
			}
			p := ud.prox * edge.W
			if p > best[edge.To] && !settled[edge.To] {
				best[edge.To] = p
				heap.Push(h, userDist{user: edge.To, prox: p})
			}
		}
		if stats.UsersVisited%stopStride == 0 {
			next := 0.0
			if h.Len() > 0 {
				next = (*h)[0].prox
			}
			if canStop(list, opts.K, alpha, next, eps) {
				stats.Elapsed = time.Since(start)
				return e.collect(list, opts.K, alpha, next, eps), stats, nil
			}
		}
	}
	stats.Exhausted = true
	stats.Elapsed = time.Since(start)
	return e.collect(list, opts.K, alpha, 0, eps), stats, nil
}

// canStop reports whether the current k best lower bounds dominate every
// other candidate's upper bound under the given frontier proximity.
func canStop(list []*uitItem, k int, alpha, frontier, eps float64) bool {
	if len(list) <= k {
		// All candidates will be returned; only their relative order can
		// change, which does not affect the answer set.
		return frontier == 0
	}
	lowers := make([]float64, 0, len(list))
	for _, c := range list {
		lowers = append(lowers, c.lower(alpha))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(lowers)))
	kth := lowers[k-1]

	above := 0
	for _, c := range list {
		if c.lower(alpha) >= kth-eps {
			above++
			continue
		}
		if c.upper(alpha, frontier) > kth+eps {
			return false
		}
	}
	// More than k candidates may sit at the k-th lower bound (ties); they
	// are interchangeable only if their bounds are closed.
	if above > k {
		for _, c := range list {
			if c.lower(alpha) >= kth-eps && c.upper(alpha, frontier)-c.lower(alpha) > eps {
				return false
			}
		}
	}
	return true
}

// collect returns the k best candidates by upper bound (ties by item id).
func (e *Engine) collect(list []*uitItem, k int, alpha, frontier, eps float64) []Result {
	_ = eps
	sort.Slice(list, func(i, j int) bool {
		ui, uj := list[i].upper(alpha, frontier), list[j].upper(alpha, frontier)
		if ui != uj {
			return ui > uj
		}
		return list[i].id < list[j].id
	})
	out := make([]Result, 0, k)
	for _, c := range list {
		if len(out) == k {
			break
		}
		out = append(out, Result{
			Item:  c.id,
			URI:   e.uit.in.URIOf(c.id),
			Lower: c.lower(alpha),
			Upper: c.upper(alpha, frontier),
		})
	}
	return out
}

// ExactScores computes every candidate's exact TopkS score by fully
// draining the frontier — the oracle used in tests and quality measures.
func (e *Engine) ExactScores(seeker graph.NID, keywords []dict.ID, alpha float64) map[graph.NID]float64 {
	kwSet := make(map[dict.ID]struct{}, len(keywords))
	for _, k := range keywords {
		kwSet[k] = struct{}{}
	}
	prox := e.BestPathProx(seeker)

	out := make(map[graph.NID]float64)
	for k := range kwSet {
		maxT := e.uit.MaxTaggers(k)
		if maxT == 0 {
			continue
		}
		for _, it := range e.uit.ItemsWithKw(k) {
			out[it] += (1 - alpha) * float64(e.uit.Taggers(it, k)) / float64(maxT)
		}
	}
	for user, p := range prox {
		for _, ik := range e.uit.TriplesOf(user) {
			if _, ok := kwSet[ik.Kw]; !ok {
				continue
			}
			if _, cand := out[ik.Item]; cand {
				out[ik.Item] += float64(alpha * p)
			}
		}
	}
	return out
}

// BestPathProx computes the best single-path proximity (maximum product
// of edge weights) from the seeker to every user.
func (e *Engine) BestPathProx(seeker graph.NID) map[graph.NID]float64 {
	in := e.uit.in
	best := map[graph.NID]float64{seeker: 1}
	settled := make(map[graph.NID]bool)
	h := &userHeap{{user: seeker, prox: 1}}
	for h.Len() > 0 {
		ud := heap.Pop(h).(userDist)
		if settled[ud.user] {
			continue
		}
		settled[ud.user] = true
		for _, edge := range in.OutEdges(ud.user) {
			if in.KindOf(edge.To) != graph.KindUser {
				continue
			}
			p := ud.prox * edge.W
			if p > best[edge.To] && !settled[edge.To] {
				best[edge.To] = p
				heap.Push(h, userDist{user: edge.To, prox: p})
			}
		}
	}
	return best
}
