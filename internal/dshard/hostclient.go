// Worker sessions, coordinator side.
//
// A session covers the shards of the picked cover that land on one
// worker process — all of them in ONE session (/shard/v1/beginset), a
// single shard being the one-member case. The worker drives the whole
// group off a single shared proximity iterator — one Step per round
// feeds every co-hosted shard — and every batch returns a RoundInfo per
// member per round: the first rides on the beginset reply (when the
// coordinator planned one before Begin), the rest are one
// /shard/v1/rounds RPC each. Coordinator-side, the
// shared session is split back into per-shard views (hostShardView) so
// core.Coordinate and the failover wrapper keep seeing one
// ShardExecutor per shard: the views serialize on the session, the
// first one to need a round fetches for all, and the others consume
// from the shared buffer without touching the wire.
//
// A batch's per-round infos are buffered and Round() hands them back one
// at a time — core.Coordinate replays every per-round stop decision
// locally, so how rounds are grouped into RPCs never changes an answer.
// Batches are as large as the coordinator's plan allows; the worker cuts
// one short only at exhaustion or the precision floor. When speculation
// is allowed, the next batch is issued as soon as the buffer drains (this
// host computes it while the scatter still waits on a slower one). A stop
// therefore leaves at most the rest of one batch plus one in-flight batch
// executed but unconsumed — worker CPU only, which End drains and counts.
//
// Failover stays per shard: a view that fails (or whose whole host
// dies) is abandoned individually and its failoverExecutor re-begins a
// dedicated single-shard session on a replica, fast-forwarded through
// the consumed rounds — answers stay byte-identical either way.
package dshard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/obs"
)

// hostRoundsResult is one batched fetch's outcome: round-major rows (one
// RoundInfo per member per executed round), the worker-side span subtree
// for the batch, and the error.
type hostRoundsResult struct {
	rows [][]core.RoundInfo
	span *obs.Span
	err  error
}

// hostSession is one worker session covering a group of co-hosted
// shards. The round buffer and collective begin / finalize state live
// under one mutex the member views serialize on. Lockstep guarantees
// every view consumes the same round sequence, so whichever view first
// needs round r fetches the batch for all.
type hostSession struct {
	// Wire identity and RPC scope, immutable once the first view is handed
	// out. ctx scopes every RPC except End (cancelled searches must still
	// release worker sessions); rpcTimeout, when positive, bounds each RPC
	// individually; traceID, when non-zero, asks the worker to record
	// spans; budget, when positive, ships as the beginset deadline; lat,
	// when non-nil, receives round-fetch RTTs for the hedge-delay estimate.
	client     *http.Client
	base       string
	searchID   uint64
	shards     []int // the group, in reply order
	ctx        context.Context
	cancel     context.CancelFunc
	rpcTimeout time.Duration
	traceID    uint64
	budget     time.Duration
	lat        *latRing
	metrics    *rpcMetrics

	// batchHint / wantSpec are the coordinator loop's PlanRounds state;
	// the hint is 0 until the first plan, and a session begun unplanned
	// asks for no rounds on its beginset. batchCap, when positive, clips
	// every hint (tests force a grouping with it).
	batchHint atomic.Int32
	wantSpec  atomic.Bool
	batchCap  int

	mu sync.Mutex
	// err is the first transport-class error the session hit: once set,
	// every member's Round fails, so each fails over on its own.
	// Deterministic application rejections (HTTP 400 — a malformed or
	// oversized spec the worker validated and refused) are NOT recorded:
	// every replica would reject them identically, so benching on them
	// would let one bad request drain the whole fleet.
	err error

	// Collective begin: the first view to call Begin posts the beginset
	// frame; the others pick up the stored per-member infos (or the
	// stored error — a failed beginset fails every member). Rounds the
	// reply carried are already in the round buffer below.
	beginDone  bool
	beginInfos []core.BeginInfo
	beginErr   error
	beginSpan  *obs.Span

	// The shared round buffer. buf[i] is round pruned+1+i, one RoundInfo
	// per member; rows are pruned once every live view has consumed them.
	// pre, when non-nil, is the single outstanding speculative fetch.
	fetched   uint32
	pruned    uint32
	buf       [][]core.RoundInfo
	pre       chan hostRoundsResult
	batchSpan *obs.Span

	// Collective finalize, same shape as begin.
	finDone  bool
	finInfos []core.RoundInfo
	finErr   error
	finSpan  *obs.Span

	views   []*hostShardView
	ended   int
	endSent bool
}

// hostShardView is one shard's executor-facing view of a hostSession.
type hostShardView struct {
	s        *hostSession
	idx      int    // position in the session's shard list
	consumed uint32 // rounds this view handed to its coordinator goroutine
	dead     atomic.Bool
	span     *obs.Span
	endedF   bool // under s.mu
}

// newHostSession binds a search id to a worker URL and a shard group, with
// one view per shard (ordered as shards). The beginset frame is posted
// lazily by the first view's Begin.
func newHostSession(ctx context.Context, client *http.Client, base string, searchID uint64, shards []int) *hostSession {
	rctx, cancel := context.WithCancel(ctx)
	s := &hostSession{client: client, base: base, searchID: searchID, shards: shards, ctx: rctx, cancel: cancel}
	for i := range shards {
		s.views = append(s.views, &hostShardView{s: s, idx: i})
	}
	return s
}

// connect opens this search's session on ref for the shards it was picked
// to serve and returns one view per shard.
func (c *Coordinator) connect(ctx context.Context, ref *workerRef, shards []int,
	traceID uint64, budget time.Duration) []*hostShardView {
	s := newHostSession(ctx, c.client, ref.url, c.nextSearchID(), shards)
	s.rpcTimeout = c.cfg.RPCTimeout
	s.traceID, s.budget = traceID, budget
	s.lat, s.metrics, s.batchCap = &ref.lat, c.metrics, c.batchCap
	if len(shards) > 1 {
		c.metrics.addHostSession()
	}
	return s.views
}

// cancelConn abandons this view's use of the session; the shared RPC
// context is cancelled only once every member is dead, so one shard's
// failover never kills its siblings' in-flight rounds.
func (v *hostShardView) cancelConn() {
	v.dead.Store(true)
	s := v.s
	for _, vv := range s.views {
		if !vv.dead.Load() {
			return
		}
	}
	s.cancel()
}

// setErrLocked records a transport-class error; application rejections
// pass through without poisoning the session.
func (s *hostSession) setErrLocked(err error) error {
	var app *appError
	if !errors.As(err, &app) && s.err == nil {
		s.err = err
	}
	return err
}

// Begin implements core.ShardExecutor: the first arriving view posts the
// beginset covering the whole group; every view returns its member's
// BeginInfo (or the shared error).
func (v *hostShardView) Begin(spec core.SearchSpec) (core.BeginInfo, error) {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.beginDone {
		s.beginDone = true
		s.beginInfos, s.beginSpan, s.beginErr = s.doBeginLocked(spec)
	}
	if s.beginErr != nil {
		return core.BeginInfo{}, s.beginErr
	}
	if s.beginSpan != nil {
		v.span, s.beginSpan = s.beginSpan, nil
	}
	return s.beginInfos[v.idx], nil
}

func (s *hostSession) doBeginLocked(spec core.SearchSpec) ([]core.BeginInfo, *obs.Span, error) {
	start := time.Now()
	br := beginSetRequest{searchID: s.searchID, shards: s.shards, spec: spec, traceID: s.traceID,
		rounds: uint32(s.batchHint.Load())}
	if s.budget > 0 {
		// The grace keeps a worker from sweeping the session out from under
		// the coordinator's own budget-stop finalize.
		br.deadlineMicros = uint64((s.budget + 2*time.Second).Microseconds())
	}
	fb, err := s.post(epBeginSet, encodeBeginSetRequest(br))
	if err != nil {
		return nil, nil, s.setErrLocked(err)
	}
	infos, rows, sp, bsp, derr := decodeBeginSetReply(fb.b, len(s.shards), start)
	putFrame(fb)
	if derr != nil {
		return nil, nil, s.setErrLocked(derr)
	}
	if len(rows) > 0 {
		s.observeRounds(start, len(rows))
		s.landLocked(hostRoundsResult{rows: rows, span: bsp})
	}
	return infos, sp, nil
}

// observeRounds records one round-carrying exchange (nil-safe metrics).
func (s *hostSession) observeRounds(start time.Time, rounds int) {
	s.metrics.observeBatch(rounds)
	s.metrics.observeHostRPC(start, len(s.shards))
}

// fetchRounds runs one batched fetch: up to batch rounds starting at
// from, a RoundInfo per member per round. Mutex-free — the speculative
// prefetch goroutine calls it too; it touches only immutable session
// fields and the wire.
func (s *hostSession) fetchRounds(from uint32, batch int) hostRoundsResult {
	start := time.Now()
	req := getFrame()
	req.b = appendRoundsRequest(req.b[:0], roundsRequest{searchID: s.searchID, from: from, max: uint32(max(batch, 1))})
	fb, err := s.post(epRounds, req.b)
	putFrame(req)
	if err != nil {
		return hostRoundsResult{err: err}
	}
	rows, sp, err := decodeHostRoundsReply(fb.b, len(s.shards), start)
	putFrame(fb)
	if err != nil {
		return hostRoundsResult{err: err}
	}
	s.observeRounds(start, len(rows))
	return hostRoundsResult{rows: rows, span: sp}
}

// landLocked appends one batch to the shared buffer.
func (s *hostSession) landLocked(res hostRoundsResult) error {
	if res.err != nil {
		return s.setErrLocked(res.err)
	}
	s.buf = append(s.buf, res.rows...)
	s.fetched += uint32(len(res.rows))
	s.batchSpan = res.span
	return nil
}

// fillLocked lands the next batch in the shared buffer: the outstanding
// speculative fetch if one is in flight, a fresh fetch otherwise. The
// session mutex stays held across the RPC on purpose — sibling views
// blocking on it need exactly the rounds this fetch returns.
func (s *hostSession) fillLocked() error {
	if ch := s.pre; ch != nil {
		s.pre = nil
		return s.landLocked(<-ch)
	}
	return s.landLocked(s.fetchRounds(s.fetched+1, int(s.batchHint.Load())))
}

// Round implements core.ShardExecutor: this member's next round, fetched
// for the whole group when the shared buffer is dry. Exactly one
// RoundInfo per call, in round order — the grouping of shards into one
// RPC is as invisible to the coordinator's stop logic as the grouping of
// rounds into batches.
func (v *hostShardView) Round() (core.RoundInfo, error) {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return core.RoundInfo{}, s.err
	}
	target := v.consumed + 1
	for target > s.pruned+uint32(len(s.buf)) {
		if err := s.fillLocked(); err != nil {
			return core.RoundInfo{}, err
		}
	}
	row := s.buf[target-s.pruned-1]
	v.consumed = target
	if s.batchSpan != nil {
		// The batch's span subtree surfaces with its first consumed round,
		// on whichever member got there first.
		v.span, s.batchSpan = s.batchSpan, nil
	}
	info := row[v.idx]
	s.pruneLocked()
	s.maybeSpeculateLocked(info)
	return info, nil
}

// pruneLocked drops buffered rows every live view has consumed.
func (s *hostSession) pruneLocked() {
	minC := s.fetched
	for _, v := range s.views {
		if !v.dead.Load() && v.consumed < minC {
			minC = v.consumed
		}
	}
	if drop := minC - s.pruned; drop > 0 && int(drop) <= len(s.buf) {
		s.buf = s.buf[drop:]
		s.pruned = minC
	}
}

// maybeSpeculateLocked issues the group's single speculative prefetch
// once every live view has drained the buffer (lockstep means they all
// arrive within one merge of each other) and the just-consumed round
// still looks continuable. What it buys is overlap across hosts: this
// host computes its next batch while the coordinator's scatter still
// waits on a slower one. At most one is ever outstanding, so a stop
// leaves at most one speculative batch behind.
func (s *hostSession) maybeSpeculateLocked(info core.RoundInfo) {
	if s.pre != nil || !s.wantSpec.Load() || info.Done || info.Tail < 1e-15 {
		return
	}
	for _, v := range s.views {
		if !v.dead.Load() && v.consumed < s.fetched {
			return
		}
	}
	from, batch := s.fetched+1, int(s.batchHint.Load())
	ch := make(chan hostRoundsResult, 1)
	s.pre = ch
	s.metrics.addSpecIssued()
	go func() { ch <- s.fetchRounds(from, batch) }()
}

// Finalize implements core.ShardExecutor: one finalize RPC per session, a
// RoundInfo per member in the reply. Every finalize-reaching stop
// (exhaustion, budget, precision) leaves the worker exactly at the
// consumed round: batches are capped at MaxIterations, budgeted searches
// run unbatched (and open with no rounds on the beginset), and the worker
// itself stops a batch at exhaustion or the precision floor — so the
// buffer is empty here by construction.
func (v *hostShardView) Finalize() (core.RoundInfo, error) {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.finDone {
		s.finDone = true
		s.finInfos, s.finSpan, s.finErr = s.doFinalizeLocked(v.consumed)
	}
	if s.finErr != nil {
		return core.RoundInfo{}, s.finErr
	}
	if s.finSpan != nil {
		v.span, s.finSpan = s.finSpan, nil
	}
	return s.finInfos[v.idx], nil
}

func (s *hostSession) doFinalizeLocked(round uint32) ([]core.RoundInfo, *obs.Span, error) {
	start := time.Now()
	fb, err := s.post(epFinalize, encodeRoundRequest(roundRequest{searchID: s.searchID, round: round}))
	if err != nil {
		return nil, nil, s.setErrLocked(err)
	}
	infos, sp, derr := decodeHostInfosReply(fb.b, len(s.shards), start)
	putFrame(fb)
	if derr != nil {
		return nil, nil, s.setErrLocked(derr)
	}
	return infos, sp, nil
}

// End implements core.ShardExecutor: best-effort release of the worker's
// session, once, when its last view ends. The POST is fired
// asynchronously — the answer is already decided when End runs, and a
// hung worker must not stall the search's return (or a failover retry)
// on teardown. Unconsumed buffered rounds and a drained in-flight
// prefetch are priced as speculation waste per round (not per member —
// the worker executed each round once); the worker's TTL/deadline
// sweeper catches anything the request fails to release.
func (v *hostShardView) End() {
	s := v.s
	s.mu.Lock()
	if v.endedF {
		s.mu.Unlock()
		return
	}
	v.endedF = true
	v.dead.Store(true)
	s.ended++
	last := s.ended == len(s.views) && !s.endSent
	var pre chan hostRoundsResult
	var wasted int
	var endRound uint32
	begun := s.beginDone && s.beginErr == nil
	if last {
		s.endSent = true
		pre, s.pre = s.pre, nil
		for _, vv := range s.views {
			if vv.consumed > endRound {
				endRound = vv.consumed
			}
		}
		wasted = int(s.fetched - endRound)
		s.buf = nil
	}
	s.mu.Unlock()
	if !last {
		return
	}
	go func() {
		if pre != nil {
			if res := <-pre; res.err == nil {
				wasted += len(res.rows)
			}
		}
		s.metrics.addSpecWasted(wasted)
		if begun {
			// The session must be released even when the search's context
			// was cancelled (client disconnect) or the executor failed over
			// away from this worker: End always runs on its own bounded
			// context.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			fb, _ := s.postCtx(ctx, epEnd, encodeRoundRequest(roundRequest{searchID: s.searchID, round: endRound}))
			putFrame(fb)
		}
		s.cancel()
	}()
}

// FastForward advances a freshly begun session through rounds 1..upto,
// discarding the results: the failover path, replaying a consumed round
// history onto a replacement replica by looping the replay endpoint (one
// frame per maxWorkerBatch rounds). The worker executes the identical FP
// operations the failed replica did, so the session state after the call
// is bit-identical to the original timeline's. Only single-view sessions
// are ever fast-forwarded (failover and hedging attach dedicated
// singletons); a multi-view session cannot replay one member
// independently, so that is a wiring bug, not a worker fault.
func (v *hostShardView) FastForward(upto uint32) error {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.views) > 1 {
		return s.setErrLocked(fmt.Errorf("dshard: %s: fast-forward on a %d-view host session", s.base, len(s.views)))
	}
	for v.consumed < upto {
		fb, err := s.post(epReplay, encodeReplayRequest(replayRequest{
			searchID: s.searchID, from: v.consumed + 1, upto: upto,
		}))
		if err != nil {
			return s.setErrLocked(err)
		}
		rep, derr := decodeReplayReply(fb.b)
		putFrame(fb)
		if derr != nil {
			return s.setErrLocked(derr)
		}
		if rep.round <= v.consumed || rep.round > upto {
			return s.setErrLocked(fmt.Errorf("dshard: %s: replay moved session to round %d (was %d, want %d)",
				s.base, rep.round, v.consumed, upto))
		}
		v.consumed = rep.round
		s.fetched, s.pruned, s.buf = rep.round, rep.round, nil
	}
	return nil
}

// PlanRounds implements core.RoundPlanner: the coordinator's plan for the
// next fetch, set before every scatter. Lockstep hands every member the
// same plan each scatter, so last-write-wins stores are exact.
func (v *hostShardView) PlanRounds(batch int, speculate bool) {
	if c := v.s.batchCap; c > 0 {
		batch = min(batch, c)
	}
	v.s.batchHint.Store(int32(min(max(batch, 1), maxBatchRounds)))
	v.s.wantSpec.Store(speculate)
}

// TakeSpan implements the coordinator's span collection: the worker-side
// span subtree decoded off the most recent response, cleared on read.
// Only this view's own scatter goroutine reads it, between its own Round
// calls.
func (v *hostShardView) TakeSpan() *obs.Span {
	sp := v.span
	v.span = nil
	return sp
}

// buffered reports rounds fetched but not yet consumed by THIS view
// (failover must not replay rounds the coordinator never saw) and whether
// a speculative fetch is outstanding.
func (v *hostShardView) buffered() (ahead int, speculating bool) {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.fetched - v.consumed), s.pre != nil
}

// hedgeable reports whether the failover layer may race this view against
// a hedge replica: a hedge races the primary's Round from a helper
// goroutine, which a multi-member session's shared mutex would deadlock
// against its siblings; singletons hedge freely.
func (v *hostShardView) hedgeable() bool { return len(v.s.views) == 1 }
