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
// of the same shard (fresh search id), fetches rounds 1..consumed again
// without looking at them (hostShardView.FastForward) and resumes
// lockstep. The recovered search's answer is byte-identical to an
// undisturbed one, property-tested in chaos_test.go.
//
// A worker that is slow but alive takes the same road: its RPC or the
// next record of its stream times out (CoordinatorConfig.RPCTimeout),
// which is a transport error like any other — failover, then the breaker.
package dshard

import (
	"context"
	"errors"
	"fmt"

	"s3/internal/core"
	"s3/internal/obs"
)

// failoverExecutor wraps one shard's session view with failover. It
// implements core.ShardExecutor (and spanSource) so core.Coordinate drives
// it unchanged; all methods are called from that shard's scatter
// goroutine, so the mutable fields need no locking.
type failoverExecutor struct {
	c     *Coordinator
	shard int
	ctx   context.Context // the search's context (never nil)
	copts core.CoordOptions

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
}

var _ core.ShardExecutor = (*failoverExecutor)(nil)

// newFailoverExecutor binds a shard's executor to its first replica
// through conn, the view the search's cover planning opened (possibly one
// member of a host-grouped session). excluded seeds the tried set
// (replicas earlier whole-search attempts already benched).
func (c *Coordinator) newFailoverExecutor(ctx context.Context, shard int, ref *workerRef,
	conn *hostShardView, copts core.CoordOptions, excluded map[*workerRef]bool) *failoverExecutor {
	fx := &failoverExecutor{
		c:      c,
		shard:  shard,
		ctx:    ctx,
		copts:  copts,
		cur:    conn,
		ref:    ref,
		tried:  map[*workerRef]bool{ref: true},
		failed: map[*workerRef]error{},
	}
	for w := range excluded {
		fx.tried[w] = true
	}
	return fx
}

// attach opens a fresh single-shard session on one replica.
func (fx *failoverExecutor) attach(ref *workerRef) *hostShardView {
	return fx.c.connect(fx.ctx, ref, []int{fx.shard}, fx.copts)[0]
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

// establishOn opens a replacement session on r — like any other, its first
// stream rides on the beginset — and fast-forwards it to the consumed round.
func (fx *failoverExecutor) establishOn(r *hostShardView) error {
	info, err := r.Begin(fx.spec)
	if err != nil {
		return err
	}
	if fx.begun && info.Matched != fx.beginInfo.Matched {
		return fmt.Errorf("dshard: %s: replica diverges on begin (matched %d, had %d)",
			r.s.base, info.Matched, fx.beginInfo.Matched)
	}
	return r.FastForward(fx.consumed)
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
		if err := fx.establishOn(r); err != nil {
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
// failed over when it breaks.
func (fx *failoverExecutor) Round() (core.RoundInfo, error) {
	for {
		info, err := fx.cur.Round()
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

// Finalize implements core.ShardExecutor, with the same failover loop as
// Round (a failed-over session's stream ends wherever the failed one's
// did, so wherever that one would have sat at the consumed round, so does
// it).
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
