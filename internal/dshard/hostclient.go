// Worker sessions, coordinator side.
//
// A session covers the shards of the picked cover that land on one
// worker process — all of them in ONE session (/shard/v1/beginset), a
// single shard being the one-member case. The worker drives the whole
// group off a single shared proximity iterator — one Step per round
// feeds every co-hosted shard — and streams one record per round, a
// RoundInfo per member in each: the beginset reply goes on streaming after
// its begin record (unless the search is budgeted), and a /shard/v1/rounds
// reply carries any stream after that. Coordinator-side, the shared
// session is split back into per-shard views (hostShardView) so
// core.Coordinate and the failover wrapper keep seeing one ShardExecutor
// per shard: the views serialize on the session, the first one to need a
// round reads it for all, and the others consume from the shared buffer
// without touching the wire.
//
// Rounds move one way: the session keeps the open stream, and a view that
// needs a round the buffer does not hold reads the next record of it —
// a new rounds stream opens only when the last one ended at its cap (see
// capLocked). core.Coordinate replays every per-round stop decision
// locally, so how rounds are grouped into streams never changes an answer.
// When the search stops, End hangs up on the stream and the worker stops
// stepping within a round: the rounds it ran past the stop are the
// stream's delivery lag, worker CPU only.
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
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/obs"
)

// hostSession is one worker session covering a group of co-hosted
// shards. The round buffer and collective begin / finalize state live
// under one mutex the member views serialize on. Lockstep guarantees
// every view consumes the same round sequence, so whichever view first
// needs round r reads it for all.
type hostSession struct {
	// Wire identity and RPC scope, immutable once the first view is handed
	// out. ctx scopes every RPC except End (cancelled searches must still
	// release worker sessions); rpcTimeout, when positive, bounds each RPC
	// and each record of a stream; traceID, when non-zero, asks the worker
	// to record spans; budget, when positive, ships as the beginset
	// deadline, and with maxIter (the search's MaxIterations) caps every
	// stream; streamCap, when positive, caps it further (tests force a
	// grouping with it).
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
	streamCap  int
	metrics    *rpcMetrics

	mu sync.Mutex
	// err is the first transport-class error the session hit: once set,
	// every member's Round fails, so each fails over on its own.
	// Deterministic application rejections (HTTP 400 — a malformed or
	// oversized spec the worker validated and refused) are NOT recorded:
	// every replica would reject them identically, so benching on them
	// would let one bad request drain the whole fleet.
	err error

	// Collective begin: the first view to call Begin posts the beginset;
	// the others pick up the stored per-member infos (or the stored error —
	// a failed beginset fails every member). The reply stays open as the
	// session's first stream.
	beginDone  bool
	beginInfos []core.BeginInfo
	beginErr   error
	beginSpan  *obs.Span

	// The shared round buffer. buf[i] is round pruned+1+i, one RoundInfo
	// per member; rows are pruned once every live view has consumed them.
	// stream, when non-nil, is the open reply the next rounds are read
	// from, through its transport reply sr.
	fetched uint32
	pruned  uint32
	buf     [][]core.RoundInfo
	stream  *roundStream
	sr      *reply

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
// one view per shard (ordered as shards). The beginset is posted lazily by
// the first view's Begin.
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
	s.metrics, s.streamCap = c.metrics, c.streamCap
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

// capLocked is how many rounds the next stream may carry: the any-time
// bounds must never let a worker step past the round a stop finalizes at.
// A Budget stop can land on any round, so budgeted searches stream one
// round per exchange; MaxIterations caps the stream at the bound.
func (s *hostSession) capLocked() uint32 {
	if s.budget > 0 {
		return 1
	}
	c := maxWorkerBatch
	if s.streamCap > 0 {
		c = min(c, s.streamCap)
	}
	if s.maxIter > 0 {
		c = max(min(c, s.maxIter-int(s.fetched)), 1)
	}
	return uint32(c)
}

func (s *hostSession) doBeginLocked(spec core.SearchSpec) ([]core.BeginInfo, *obs.Span, error) {
	start := time.Now()
	br := beginSetRequest{searchID: s.searchID, shards: s.shards, spec: spec, traceID: s.traceID}
	// The first stream rides on the beginset — except a budgeted search's,
	// whose budget can expire before round 1: that stop finalizes at tail 0.
	if s.budget > 0 {
		// The grace keeps a worker from sweeping the session out from under
		// the coordinator's own budget-stop finalize.
		br.deadlineMicros = uint64((s.budget + 2*time.Second).Microseconds())
	} else {
		br.rounds = s.capLocked()
	}
	if err := s.openLocked(epBeginSet, encodeBeginSetRequest(br), br.rounds); err != nil {
		return nil, nil, err
	}
	infos, sp, err := s.stream.begin(start)
	if err != nil {
		return nil, nil, s.streamErrLocked(err)
	}
	if s.stream.done {
		s.closeStreamLocked()
	}
	return infos, sp, nil
}

// openLocked posts a beginset or rounds request whose reply streams at
// most max rounds, and keeps the reply open as the session's stream.
func (s *hostSession) openLocked(ep int, payload []byte, max uint32) error {
	r, err := s.post(s.ctx, ep, payload)
	if err != nil {
		return s.setErrLocked(err)
	}
	s.sr = r
	s.stream = &roundStream{rr: recordReader{r: r, fb: getFrame()}, nShards: len(s.shards), left: max}
	return nil
}

// closeStreamLocked releases the open stream, read to its end or
// abandoned mid-way (see close), and records it as one round-carrying
// exchange if it carried rounds.
func (s *hostSession) closeStreamLocked() {
	if s.stream == nil {
		return
	}
	if n := s.stream.read; n > 0 {
		s.metrics.observeBatch(int(n))
		s.metrics.observeHostRPC(s.sr.start, len(s.shards))
	}
	s.close(s.sr)
	putFrame(s.stream.rr.fb)
	s.stream, s.sr = nil, nil
}

// streamErrLocked hangs up on a stream that failed to read or decode: a
// cut, stalled or corrupted stream poisons the session like any transport
// failure.
func (s *hostSession) streamErrLocked(err error) error {
	err = fmt.Errorf("dshard: %s%s: %w", s.base, epPaths[s.sr.ep], err)
	s.closeStreamLocked()
	return s.setErrLocked(err)
}

// nextLocked reads the next round into the shared buffer — from the open
// stream, or from a rounds stream it opens at the round after the last one
// read — and returns the round's worker-side span. The session mutex stays
// held across the read on purpose: sibling views blocking on it need
// exactly the round it returns.
func (s *hostSession) nextLocked() (*obs.Span, error) {
	if s.stream == nil {
		c := s.capLocked()
		req := appendRoundsRequest(nil, roundsRequest{searchID: s.searchID, from: s.fetched + 1, max: c})
		if err := s.openLocked(epRounds, req, c); err != nil {
			return nil, err
		}
	}
	row, sp, err := s.stream.round(time.Now())
	if err != nil {
		return nil, s.streamErrLocked(err)
	}
	s.buf = append(s.buf, row)
	s.fetched++
	if s.stream.done {
		s.closeStreamLocked()
	}
	return sp, nil
}

// Round implements core.ShardExecutor: this member's next round, read for
// the whole group when the shared buffer is dry. Exactly one RoundInfo per
// call, in round order — the grouping of shards into one session is as
// invisible to the coordinator's stop logic as the grouping of rounds into
// streams.
func (v *hostShardView) Round() (core.RoundInfo, error) {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return core.RoundInfo{}, s.err
	}
	target := v.consumed + 1
	for target > s.fetched {
		// A round's span subtree surfaces with it, on whichever member read
		// it off the wire.
		var err error
		if v.span, err = s.nextLocked(); err != nil {
			return core.RoundInfo{}, err
		}
	}
	row := s.buf[target-s.pruned-1]
	v.consumed = target
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
// consumed round: streams are capped at MaxIterations, budgeted searches
// stream one round at a time (and open with no rounds on the beginset),
// and the worker itself ends a stream at exhaustion or the precision floor
// — so the stream has ended at the consumed round by construction.
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
	r, err := s.post(s.ctx, epFinalize, encodeRoundRequest(roundRequest{searchID: s.searchID, round: round}))
	if err != nil {
		return nil, nil, s.setErrLocked(err)
	}
	defer s.close(r)
	rr := recordReader{r: r, fb: getFrame()}
	defer putFrame(rr.fb)
	p, err := rr.next()
	if err == nil {
		err = rr.eof()
	}
	if err != nil {
		return nil, nil, s.setErrLocked(fmt.Errorf("dshard: %s%s: %w", s.base, pathFinalize, err))
	}
	infos, sp, err := decodeHostInfosReply(p, len(s.shards), start)
	if err != nil {
		return nil, nil, s.setErrLocked(err)
	}
	return infos, sp, nil
}

// End implements core.ShardExecutor: best-effort release of the worker's
// session, once, when its last view ends. A stream still open is hung up
// on, which stops the worker stepping it; the /end POST is then fired
// asynchronously — the answer is already decided when End runs, and a hung
// worker must not stall the search's return (or a failover retry) on
// teardown. Rounds read but never consumed are priced per round (not per
// member — the worker executed each round once); the worker's
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
		s.closeStreamLocked()
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
			if r, err := s.post(ctx, epEnd, encodeRoundRequest(roundRequest{searchID: s.searchID, round: endRound})); err == nil {
				_, _ = io.Copy(io.Discard, r) // the empty reply: keeps the connection
				s.close(r)
			}
		}
		s.cancel()
	}()
}

// FastForward advances a freshly begun session through rounds 1..upto and
// drops their rows: the failover path, bringing a replacement replica to
// the round the coordinator has consumed. The worker executes the FP
// operations the failed replica did, so the session ends up bit-identical
// to the original timeline — and where that would finalize, the stream
// ends too. Only single-view sessions are ever fast-forwarded (failover
// attaches dedicated singletons); a multi-view session cannot replay one
// member independently, so that is a wiring bug, not a worker fault.
func (v *hostShardView) FastForward(upto uint32) error {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.views) > 1 {
		return s.setErrLocked(fmt.Errorf("dshard: %s: fast-forward on a %d-view host session", s.base, len(s.views)))
	}
	for s.fetched < upto {
		if _, err := s.nextLocked(); err != nil {
			return err
		}
	}
	v.consumed = upto
	s.pruneLocked()
	return nil
}

// TakeSpan implements the coordinator's span collection: the worker-side
// span subtree decoded off the most recent record, cleared on read. Only
// this view's own scatter goroutine reads it, between its own Round calls.
func (v *hostShardView) TakeSpan() *obs.Span {
	sp := v.span
	v.span = nil
	return sp
}
