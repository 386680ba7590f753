// Worker sessions, coordinator side.
//
// A session covers the shards of the picked cover that land on one
// worker process — all of them in ONE session (/shard/v1/beginset), a
// single shard being the one-member case. The worker drives the whole
// group off a single shared proximity iterator — one Step per round
// feeds every co-hosted shard — and every batch returns a RoundInfo per
// member per round: the first rides on the beginset reply (unless the
// search is budgeted), the rest are one /shard/v1/rounds RPC each.
// Coordinator-side, the shared session is split back into per-shard views
// (hostShardView) so core.Coordinate and the failover wrapper keep seeing
// one ShardExecutor per shard: the views serialize on the session, the
// first one to need a round fetches for all, and the others consume from
// the shared buffer without touching the wire.
//
// Rounds move one way: when a view needs a round the buffer does not hold,
// the session asks its worker for the next batch (see batchLocked). A
// batch's per-round infos are buffered and Round() hands them back one at
// a time — core.Coordinate replays every per-round stop decision locally,
// so how rounds are grouped into RPCs never changes an answer. The worker
// cuts a batch short only at exhaustion or the precision floor, so a stop
// leaves at most the rest of one batch executed but unconsumed — worker
// CPU only, which End counts.
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

// roundBatch is how many rounds every exchange, the first one included,
// asks for, clipped only by the any-time bounds (see batchLocked).
// Overshooting the stop costs worker CPU, never correctness or a round
// trip, and at ~0.2 ms per worker step against a ~5 ms exchange that trade
// only goes one way. Measured on benchmark/'s dist-rtt (2 ms-per-write
// proxies, stop rounds bimodal: 9 % of searches stop at rounds 2–5, the
// rest at 16–43, median 26): opening at 16 beat a 4-round opener 3 seeds
// of 3 (p50 26.5 vs 35.6 ms) and finishes ≈ 85 % of searches in two
// exchanges; a ramp only adds exchanges.
const roundBatch = 16

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
	// spans; budget, when positive, ships as the beginset deadline, and with
	// maxIter (the search's MaxIterations) sizes every batch; batchCap, when
	// positive, clips the batch further (tests force a grouping with it).
	client     *http.Client
	base       string
	searchID   uint64
	shards     []int // the group, in reply order
	ctx        context.Context
	cancel     context.CancelFunc
	rpcTimeout time.Duration
	traceID    uint64
	budget     time.Duration
	maxIter    int
	batchCap   int
	metrics    *rpcMetrics

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
	fetched   uint32
	pruned    uint32
	buf       [][]core.RoundInfo
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
func (c *Coordinator) connect(ctx context.Context, ref *workerRef, shards []int, copts core.CoordOptions) []*hostShardView {
	s := newHostSession(ctx, c.client, ref.url, c.nextSearchID(), shards)
	s.rpcTimeout = c.cfg.RPCTimeout
	s.traceID, s.budget, s.maxIter = copts.Trace.TraceID(), copts.Budget, copts.MaxIterations
	s.metrics, s.batchCap = c.metrics, c.batchCap
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

// batchLocked is how many rounds the next exchange asks for: the any-time
// bounds must never let a worker step past the round a stop finalizes at.
// A Budget stop can land on any round, so budgeted searches run one round
// per exchange; MaxIterations clips the batch at the cap.
func (s *hostSession) batchLocked() uint32 {
	if s.budget > 0 {
		return 1
	}
	b := roundBatch
	if s.batchCap > 0 {
		b = min(b, s.batchCap)
	}
	if s.maxIter > 0 {
		b = max(min(b, s.maxIter-int(s.fetched)), 1)
	}
	return uint32(b)
}

func (s *hostSession) doBeginLocked(spec core.SearchSpec) ([]core.BeginInfo, *obs.Span, error) {
	start := time.Now()
	br := beginSetRequest{searchID: s.searchID, shards: s.shards, spec: spec, traceID: s.traceID}
	// The first batch rides on the beginset — except a budgeted search's,
	// whose budget can expire before round 1: that stop finalizes at tail 0.
	if s.budget > 0 {
		// The grace keeps a worker from sweeping the session out from under
		// the coordinator's own budget-stop finalize.
		br.deadlineMicros = uint64((s.budget + 2*time.Second).Microseconds())
	} else {
		br.rounds = s.batchLocked()
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
		s.landLocked(start, rows, bsp)
	}
	return infos, sp, nil
}

// landLocked appends one batch to the shared buffer and records the
// round-carrying exchange that began at start (nil-safe metrics).
func (s *hostSession) landLocked(start time.Time, rows [][]core.RoundInfo, span *obs.Span) {
	s.metrics.observeBatch(len(rows))
	s.metrics.observeHostRPC(start, len(s.shards))
	s.buf = append(s.buf, rows...)
	s.fetched += uint32(len(rows))
	s.batchSpan = span
}

// fillLocked fetches the next batch — a RoundInfo per member per round,
// starting at the round after the last one fetched — into the shared
// buffer. The session mutex stays held across the RPC on purpose: sibling
// views blocking on it need exactly the rounds this fetch returns.
func (s *hostSession) fillLocked() error {
	start := time.Now()
	req := getFrame()
	req.b = appendRoundsRequest(req.b[:0], roundsRequest{searchID: s.searchID, from: s.fetched + 1, max: s.batchLocked()})
	fb, err := s.post(epRounds, req.b)
	putFrame(req)
	if err != nil {
		return s.setErrLocked(err)
	}
	rows, sp, err := decodeHostRoundsReply(fb.b, len(s.shards), start)
	putFrame(fb)
	if err != nil {
		return s.setErrLocked(err)
	}
	s.landLocked(start, rows, sp)
	return nil
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
	s.pruneLocked()
	return row[v.idx], nil
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
// on teardown. Rounds fetched but never consumed are priced per round (not
// per member — the worker executed each round once); the worker's
// TTL/deadline sweeper catches anything the request fails to release.
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
	var endRound uint32
	begun := s.beginDone && s.beginErr == nil
	if last {
		s.endSent = true
		for _, vv := range s.views {
			if vv.consumed > endRound {
				endRound = vv.consumed
			}
		}
		s.metrics.addSpecWasted(int(s.fetched - endRound))
		s.buf = nil
	}
	s.mu.Unlock()
	if !last {
		return
	}
	go func() {
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

// FastForward advances a freshly begun session through rounds 1..upto and
// drops their rows: the failover path, bringing a replacement replica to
// the round the coordinator has consumed. It loops the ordinary fill — the
// batches the failed replica was asked for, so the replacement ends on the
// same batch boundary — and the worker executes the identical FP
// operations the failed replica did, so the session state after the call
// is bit-identical to the original timeline's. Only single-view sessions
// are ever fast-forwarded (failover attaches dedicated singletons); a
// multi-view session cannot replay one member independently, so that is a
// wiring bug, not a worker fault.
func (v *hostShardView) FastForward(upto uint32) error {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.views) > 1 {
		return s.setErrLocked(fmt.Errorf("dshard: %s: fast-forward on a %d-view host session", s.base, len(s.views)))
	}
	for v.consumed < upto {
		if v.consumed == s.fetched {
			if err := s.fillLocked(); err != nil {
				return err
			}
		}
		v.consumed = min(upto, s.fetched)
		s.pruneLocked()
	}
	return nil
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
