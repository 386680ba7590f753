// Mid-search failover: a ShardExecutor wrapper that survives worker
// deaths without restarting the search.
//
// core.Coordinate consumes rounds one at a time and never looks back, so
// everything a replacement replica needs to rejoin a search mid-flight is
// the spec and the count of rounds the coordinator has consumed: workers
// execute identical floating-point operations over the shared substrate,
// so a fresh session fast-forwarded through the same number of rounds is
// bit-identical to the failed replica's state. failoverExecutor exploits
// that — on a transport error it re-begins the session on another replica
// of the same shard (fresh search id), replays rounds 1..consumed through
// /shard/v1/replay and resumes lockstep. The recovered search's answer is
// byte-identical to an undisturbed one, property-tested in chaos_test.go.
//
// The same wrapper issues hedged round RPCs: when a demand fetch is about
// to block on a primary that has been slower than its P99 for the hedge
// delay, a replica session is established (begin + replay) and races it —
// first reply wins, the loser is cancelled and released. A slow primary
// is abandoned, never benched: slow is not dead.
package dshard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"s3/internal/core"
	"s3/internal/obs"
)

// latRing estimates a worker's round-fetch P99 from a sliding window of
// RTTs. The estimate drives only the hedge delay — never answers — so a
// cheap cached quantile recomputed every few adds is plenty.
type latRing struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int
	p99 atomic.Int64 // cached estimate in ns; 0 until enough samples
}

// latRing tuning: recompute cadence, minimum samples before hedging, and
// the clamp that keeps a degenerate estimate from hedging every RPC (or
// never).
const (
	latRecomputeEvery = 16
	latMinSamples     = 32
	minHedgeDelay     = 2 * time.Millisecond
	maxHedgeDelay     = 2 * time.Second
)

func (l *latRing) add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%len(l.buf)] = d
	l.n++
	recompute := l.n >= latMinSamples && l.n%latRecomputeEvery == 0
	var window []time.Duration
	if recompute {
		window = make([]time.Duration, min(l.n, len(l.buf)))
		copy(window, l.buf[:len(window)])
	}
	l.mu.Unlock()
	if !recompute {
		return
	}
	slices.Sort(window)
	p := window[len(window)*99/100]
	if p < minHedgeDelay {
		p = minHedgeDelay
	}
	if p > maxHedgeDelay {
		p = maxHedgeDelay
	}
	l.p99.Store(int64(p))
}

// hedgeDelay returns the cached P99 estimate, or 0 while the window is
// too small to trust (no hedging until then).
func (l *latRing) hedgeDelay() time.Duration {
	return time.Duration(l.p99.Load())
}

// failoverExecutor wraps one shard's session view with failover and
// hedging. It implements core.ShardExecutor (and RoundPlanner /
// spanSource) so core.Coordinate drives it unchanged; all methods are
// called from that shard's scatter goroutine, so the mutable fields need
// no locking (the hedge goroutine touches only its own view, the
// coordinator's note methods and its result channel).
type failoverExecutor struct {
	c     *Coordinator
	shard int
	ctx   context.Context // the search's context (never nil)

	traceID uint64
	budget  time.Duration

	spec      core.SearchSpec
	beginInfo core.BeginInfo
	begun     bool
	consumed  uint32 // rounds the coordinator consumed from this shard

	cur *hostShardView
	ref *workerRef

	// tried is every replica this executor has held a session on (or
	// excluded from the start); failed is the subset that broke, for the
	// coordinator's post-search accounting.
	tried  map[*workerRef]bool
	failed map[*workerRef]error

	planBatch int
	planSpec  bool

	hedging    bool
	hedgeDelay time.Duration // fixed override; 0 derives from the worker's P99
}

var (
	_ core.ShardExecutor = (*failoverExecutor)(nil)
	_ core.RoundPlanner  = (*failoverExecutor)(nil)
)

// newFailoverExecutor binds a shard's executor to its first replica
// through conn, the view the search's cover planning opened (possibly one
// member of a host-grouped session). excluded seeds the tried set
// (replicas earlier whole-search attempts already benched).
func (c *Coordinator) newFailoverExecutor(ctx context.Context, shard int, ref *workerRef,
	conn *hostShardView, copts core.CoordOptions, excluded map[*workerRef]bool) *failoverExecutor {
	fx := &failoverExecutor{
		c:          c,
		shard:      shard,
		ctx:        ctx,
		cur:        conn,
		ref:        ref,
		traceID:    copts.Trace.TraceID(),
		budget:     copts.Budget,
		tried:      map[*workerRef]bool{ref: true},
		failed:     map[*workerRef]error{},
		planBatch:  1,
		hedging:    !c.cfg.NoHedging,
		hedgeDelay: c.cfg.HedgeDelay,
	}
	for w := range excluded {
		fx.tried[w] = true
	}
	return fx
}

// attach opens a fresh single-shard session on one replica under its own
// cancelable context (a hedge loser must be cancellable without killing
// the search).
func (fx *failoverExecutor) attach(ref *workerRef) *hostShardView {
	return fx.c.connect(fx.ctx, ref, []int{fx.shard}, fx.traceID, fx.budget)[0]
}

// fatal reports errors failover cannot route around: deterministic
// application rejections (every replica would repeat them) and the
// search's own cancellation.
func (fx *failoverExecutor) fatal(err error) bool {
	var app *appError
	return errors.As(err, &app) || fx.ctx.Err() != nil
}

// markFailed benches the current replica and abandons its session.
func (fx *failoverExecutor) markFailed(err error) {
	fx.c.noteWorkerFailure(fx.ref, err)
	fx.failed[fx.ref] = err
	fx.cur.cancelConn()
	fx.cur.End()
}

// establishOn opens a replacement session on r and fast-forwards it to
// the consumed round. The session begins unplanned — no rounds ride on
// its beginset, because replay must start from round 0 — and inherits the
// current plan afterwards. Read-only on fx (the hedge goroutine calls it).
func (fx *failoverExecutor) establishOn(r *hostShardView, consumed uint32) error {
	info, err := r.Begin(fx.spec)
	if err != nil {
		return err
	}
	r.PlanRounds(fx.planBatch, false)
	if fx.begun && info.Matched != fx.beginInfo.Matched {
		return fmt.Errorf("dshard: %s: replica diverges on begin (matched %d, had %d)",
			r.s.base, info.Matched, fx.beginInfo.Matched)
	}
	if consumed > 0 {
		return r.FastForward(consumed)
	}
	return nil
}

// failover replaces the (already failed and abandoned) current replica
// with a fresh session on another one, fast-forwarded through the rounds
// the coordinator consumed. Loops until a replica takes or the shard has
// none left.
func (fx *failoverExecutor) failover() error {
	for {
		if err := fx.ctx.Err(); err != nil {
			return err
		}
		ref, err := fx.c.pickShard(fx.shard, fx.tried)
		if err != nil {
			return err
		}
		fx.tried[ref] = true
		r := fx.attach(ref)
		if err := fx.establishOn(r, fx.consumed); err != nil {
			r.cancelConn()
			r.End()
			if fx.fatal(err) {
				return err
			}
			fx.c.noteWorkerFailure(ref, err)
			fx.failed[ref] = err
			continue
		}
		fx.cur, fx.ref = r, ref
		fx.c.failovers.Add(1)
		return nil
	}
}

// Begin implements core.ShardExecutor.
func (fx *failoverExecutor) Begin(spec core.SearchSpec) (core.BeginInfo, error) {
	fx.spec = spec
	for {
		info, err := fx.cur.Begin(spec)
		if err == nil {
			fx.beginInfo, fx.begun = info, true
			return info, nil
		}
		if fx.fatal(err) {
			return core.BeginInfo{}, err
		}
		fx.markFailed(err)
		if err := fx.ctx.Err(); err != nil {
			return core.BeginInfo{}, err
		}
		ref, perr := fx.c.pickShard(fx.shard, fx.tried)
		if perr != nil {
			return core.BeginInfo{}, err
		}
		fx.tried[ref] = true
		fx.cur, fx.ref = fx.attach(ref), ref
		fx.c.failovers.Add(1)
	}
}

// Round implements core.ShardExecutor: the current replica's next round,
// hedged when it stalls, failed over when it breaks.
func (fx *failoverExecutor) Round() (core.RoundInfo, error) {
	for {
		info, err := fx.roundAttempt()
		if err == nil {
			fx.consumed++
			return info, nil
		}
		if fx.fatal(err) {
			return core.RoundInfo{}, err
		}
		fx.markFailed(err)
		if ferr := fx.failover(); ferr != nil {
			return core.RoundInfo{}, fmt.Errorf("%w (failover: %v)", err, ferr)
		}
	}
}

// roundAttempt runs one Round on the current replica, racing a hedge
// when the fetch is network-bound and the primary overstays its delay.
func (fx *failoverExecutor) roundAttempt() (core.RoundInfo, error) {
	if fx.hedging && fx.cur.hedgeable() {
		if ahead, speculating := fx.cur.buffered(); ahead == 0 && !speculating {
			delay := fx.hedgeDelay
			if delay <= 0 {
				delay = fx.ref.lat.hedgeDelay()
			}
			if delay > 0 {
				return fx.hedgedRound(delay)
			}
		}
	}
	return fx.cur.Round()
}

type roundOutcome struct {
	info core.RoundInfo
	err  error
}

// hedgedRound races the primary's round fetch against a replica session
// established after the hedge delay. First reply wins; the loser is
// cancelled and its session released. A primary that loses the race is
// abandoned but not benched — slowness is not failure, and benching on
// it would let one GC pause drain the fleet.
func (fx *failoverExecutor) hedgedRound(delay time.Duration) (core.RoundInfo, error) {
	primary := fx.cur
	pch := make(chan roundOutcome, 1)
	go func() {
		info, err := primary.Round()
		pch <- roundOutcome{info, err}
	}()
	t := time.NewTimer(delay)
	select {
	case r := <-pch:
		t.Stop()
		return r.info, r.err
	case <-t.C:
	}
	// The hedge target is picked here, synchronously, so no goroutine
	// ever mutates fx's replica bookkeeping concurrently.
	href, err := fx.c.pickShard(fx.shard, fx.tried)
	if err != nil {
		r := <-pch // no replica to hedge with: wait the primary out
		return r.info, r.err
	}
	fx.tried[href] = true
	fx.c.hedgeIssued.Add(1)
	hrem := fx.attach(href)
	consumed := fx.consumed
	hch := make(chan roundOutcome, 1)
	go func() {
		if err := fx.establishOn(hrem, consumed); err != nil {
			hch <- roundOutcome{err: err}
			return
		}
		info, err := hrem.Round()
		hch <- roundOutcome{info, err}
	}()
	select {
	case r := <-pch:
		// Primary answered after all: cancel the hedge, release its
		// session (and any half-open trial token it held).
		hrem.cancelConn()
		go func() {
			<-hch
			hrem.End()
			fx.c.noteWorkerReleased(href)
		}()
		return r.info, r.err
	case hr := <-hch:
		if hr.err != nil {
			hrem.cancelConn()
			hrem.End()
			if fx.fatal(hr.err) {
				fx.c.noteWorkerReleased(href)
			} else {
				fx.c.noteWorkerFailure(href, hr.err)
				fx.failed[href] = hr.err
			}
			r := <-pch // the primary may still answer
			return r.info, r.err
		}
		// Hedge won: adopt it, abandon (but do not bench) the primary.
		fx.c.hedgeWon.Add(1)
		primary.cancelConn()
		go func() {
			<-pch
			primary.End()
		}()
		fx.cur, fx.ref = hrem, href
		return hr.info, nil
	}
}

// Finalize implements core.ShardExecutor, with the same failover loop as
// Round (a failed-over session sits exactly at the consumed round, so
// finalize is immediately valid on it).
func (fx *failoverExecutor) Finalize() (core.RoundInfo, error) {
	for {
		info, err := fx.cur.Finalize()
		if err == nil {
			return info, nil
		}
		if fx.fatal(err) {
			return core.RoundInfo{}, err
		}
		fx.markFailed(err)
		if ferr := fx.failover(); ferr != nil {
			return core.RoundInfo{}, fmt.Errorf("%w (failover: %v)", err, ferr)
		}
	}
}

// End implements core.ShardExecutor.
func (fx *failoverExecutor) End() {
	fx.cur.End()
}

// PlanRounds implements core.RoundPlanner: remembered so a replacement
// replica adopted mid-round inherits the current plan, then forwarded.
func (fx *failoverExecutor) PlanRounds(batch int, speculate bool) {
	fx.planBatch, fx.planSpec = batch, speculate
	fx.cur.PlanRounds(batch, speculate)
}

// TakeSpan forwards the current replica's worker-side span subtree.
func (fx *failoverExecutor) TakeSpan() *obs.Span {
	return fx.cur.TakeSpan()
}

// settle closes out breaker accounting after Coordinate returns: the
// replica holding the session at the end either proved itself (a
// successful search closes a half-open breaker and releases its trial
// token) or — when the search failed elsewhere — just hands the token
// back. Without this, a half-open worker used by a search that failed on
// a different shard would hold its trial forever.
func (fx *failoverExecutor) settle(searchErr error) {
	if fx.ref == nil || fx.failed[fx.ref] != nil {
		return
	}
	if searchErr == nil {
		fx.c.noteWorkerSuccess(fx.ref)
	} else {
		fx.c.noteWorkerReleased(fx.ref)
	}
}
