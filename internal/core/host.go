// HostExecutor: the member shards of one process behind one shared
// proximity iterator.
//
// Social proximity is defined over the whole network graph, so every
// shard of a set explores the same substrate; only candidate generation
// is per shard. A host therefore owns, once per search, everything that
// is not per shard: it opens the seeker's iterator (resumed from the
// proximity cache when one is wired), steps it once per round however
// many members it serves, routes each newly discovered matching component
// to the member owning it, and publishes the deepened frontier back when
// the search ends (and the iterator itself back to its pool). It is the
// only shard-side executor: Engine.Search runs a one-member host,
// ShardedEngine.Search an N-member one, and a distributed coordinator a
// one-member host over the whole substrate and the postings its workers
// sent — all driven member by member through Coordinate.
//
// The iterator's state at a depth is a function of the depth alone (one
// canonical summation order, see internal/score), and members read
// nothing else of the exploration, so round responses — and the
// coordinated answer — are byte-identical however shards are grouped.
package core

import (
	"fmt"
	"sync"

	"s3/internal/graph"
	"s3/internal/proxcache"
	"s3/internal/score"
)

// HostExecutor drives the rounds of one search for a set of co-hosted
// member shards off a single shared proximity iterator. The members may
// own a strict subset of the instance's components: discoveries belonging
// to shards served elsewhere are routed nowhere. A host serves one search
// at a time (its members' Begin … End) and may be reused for the next.
type HostExecutor struct {
	members []*LocalExecutor
	in      *graph.Instance // members[0]'s instance: the iterator's substrate
	iters   *sync.Pool      // members[0]'s engine's: where the iterator comes from and goes back to

	// pc, when non-nil, resumes the shared iterator from the deepest
	// cached frontier when it is opened and publishes the deepened
	// frontier at End — ONE cache entry per (seeker, params) for the whole
	// process, not one per member.
	pc *proxcache.Cache

	// mu serialises the members' access to the shared exploration below:
	// Coordinate scatters Begin and Round across members, and whichever
	// member reaches a round first steps the iterator for all of them.
	// The coordinator gathers every member before starting the next round,
	// so what a round produced (routed, the iterator-owned AllProx) stays
	// valid for the round's readers without the lock.
	mu     sync.Mutex
	seeker graph.NID
	params score.Params
	// owner maps each matched, not yet admitted component to the member
	// holding its index slice. It is the search's discovery routing table,
	// built from the members' Begin; non-nil exactly while a search is open.
	owner    map[int32]int32
	it       *score.Iterator // opened on first need, see iter
	ckey     proxcache.Key
	resumedN int
	round    int       // rounds advanced so far
	reached  int       // nodes discovered so far
	routed   [][]int32 // per member: components to admit this round, in discovery order
}

// checkMembers validates what every member set must satisfy before its
// ownership is looked at: non-empty, projections of one instance, and
// unprojected (owning everything) only when alone.
func checkMembers(engines []*Engine) error {
	if len(engines) == 0 {
		return fmt.Errorf("core: needs at least one shard engine")
	}
	for i, e := range engines {
		if e == nil {
			return fmt.Errorf("core: shard %d is nil", i)
		}
		base := engines[0].in
		if e.in.NumNodes() != base.NumNodes() || e.in.NumComponents() != base.NumComponents() {
			return fmt.Errorf("core: shard %d is not a projection of the same instance", i)
		}
		if e.in.OwnedComponents() == nil && len(engines) != 1 {
			return fmt.Errorf("core: shard %d is unprojected in a %d-shard set", i, len(engines))
		}
	}
	return nil
}

// newHost wires a host over already validated engines.
func newHost(engines []*Engine, workers int) *HostExecutor {
	h := &HostExecutor{
		in:      engines[0].in,
		iters:   engines[0].iters,
		members: make([]*LocalExecutor, len(engines)),
		routed:  make([][]int32, len(engines)),
	}
	for i, e := range engines {
		h.members[i] = &LocalExecutor{host: h, idx: i, e: e, workers: workers}
	}
	return h
}

// WithProxCache wires the process-wide seeker-proximity checkpoint cache:
// the shared iterator resumes from it when opened and publishes back at
// End. Replayed depths are bit-identical to a fresh exploration, so round
// responses do not change. One budget covers every hosted shard, because
// there is only one exploration to checkpoint.
func (h *HostExecutor) WithProxCache(pc *proxcache.Cache) *HostExecutor {
	h.pc = pc
	return h
}

// WithTracing enables per-call span recording on every member: each
// Begin, Round and Finalize builds a span subtree (with step / admit /
// bounds / select stage children), collected member by member by the
// coordinator's trace. Tracing is observational only.
func (h *HostExecutor) WithTracing(on bool) *HostExecutor {
	for _, x := range h.members {
		x.traced = on
	}
	return h
}

// ResumedDepth reports how many exploration rounds the iterator of the
// current (or most recently ended) search replayed from a cached
// checkpoint. The iterator opens when the first member with matching
// components begins, so the depth is known once Begin returns on a host
// the query has work for; 0 on a cold start.
func (h *HostExecutor) ResumedDepth() int { return h.resumedN }

// join registers a beginning member's matching components as routing
// targets; the first member to join opens the search. A member with work
// opens the iterator right away, a search nobody on the host matches only
// if it is stepped after all (another host of the set has matches).
func (h *HostExecutor) join(member int, spec SearchSpec, comps []int32) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.owner == nil {
		h.owner = make(map[int32]int32, len(comps))
		h.seeker, h.params = spec.Seeker, spec.Params
		h.round, h.reached, h.resumedN = 0, 0, 0
	}
	for _, c := range comps {
		if prev, dup := h.owner[c]; dup {
			return fmt.Errorf("core: component %d hosted by shards %d and %d", c, prev, member)
		}
		h.owner[c] = int32(member)
	}
	if len(comps) > 0 {
		h.iter()
	}
	return nil
}

// iter returns the search's proximity iterator, opening it on first use.
// Called with mu held.
func (h *HostExecutor) iter() *score.Iterator {
	if h.it == nil {
		h.it, h.ckey, h.resumedN = openIterator(h.iters, h.in, h.seeker, h.params, h.pc)
	}
	return h.it
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
func closeIterator(pool *sync.Pool, it *score.Iterator, pc *proxcache.Cache, ckey proxcache.Key, covered int) {
	if pc != nil && it.RecordedDepth() > covered {
		pc.Put(ckey, it.Checkpoint())
	}
	it.Release()
	pool.Put(it)
}

// roundState is what a round's readers take from the shared exploration.
type roundState struct {
	reached    int
	n          int
	tail       float64
	sourceTail float64
	done       bool
	prox       []float64
}

// current returns the exploration's state without stepping (Finalize).
func (h *HostExecutor) current() roundState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state()
}

func (h *HostExecutor) state() roundState {
	it := h.iter()
	return roundState{
		reached:    h.reached,
		n:          it.N(),
		tail:       it.TailBound(),
		sourceTail: it.SourceTailBound(),
		done:       it.Done(),
		prox:       it.AllProx(),
	}
}

// advance brings the shared iterator to the target round — stepping at
// most once per round across all members — and routes the round's
// discoveries: each newly reached component some member matched goes, in
// discovery order (ascending node id — the order admission runs in), to
// that member's list and leaves the table, so no component is admitted
// twice.
func (h *HostExecutor) advance(target int) roundState {
	h.mu.Lock()
	defer h.mu.Unlock()
	it := h.iter()
	for h.round < target {
		h.round++
		for m := range h.routed {
			h.routed[m] = h.routed[m][:0]
		}
		discovered := it.Step()
		h.reached += len(discovered)
		for _, nd := range discovered {
			c := h.in.CompOf(nd)
			if c < 0 {
				continue
			}
			if m, ok := h.owner[c]; ok {
				delete(h.owner, c)
				h.routed[m] = append(h.routed[m], c)
			}
		}
	}
	return h.state()
}

// End closes the search: per-member state is dropped, the shared
// iterator's frontier goes back to the cache if the search deepened it,
// and the iterator to the pool (closeIterator). Publication is
// deepen-only, so concurrent searches racing to publish can only improve
// the cache. Idempotent, and called only after every round gathered.
func (h *HostExecutor) End() {
	if h.owner == nil {
		return
	}
	for _, x := range h.members {
		x.reset()
	}
	if h.it != nil {
		// Every round has gathered, so nobody reads AllProx any more.
		closeIterator(h.iters, h.it, h.pc, h.ckey, h.resumedN)
	}
	h.it, h.owner = nil, nil
}
