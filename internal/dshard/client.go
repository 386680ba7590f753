// The coordinator's wire plumbing: per-endpoint instruments, the tuned
// keep-alive transport, and the record-framed POST every session RPC goes
// through. The session logic built on it lives in hostclient.go.
package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"s3/internal/obs"
)

// rpc endpoint ordinals for the per-endpoint instruments (both sides).
const (
	epBeginSet = iota
	epRounds
	epFinalize
	epEnd
	epCount
)

var (
	epPaths = [epCount]string{pathBeginSet, pathRounds, pathFinalize, pathEnd}
	epNames = [epCount]string{"beginset", "rounds", "finalize", "end"}
)

// rpcMetrics holds the coordinator's per-endpoint wire instruments: round
// trip time plus bytes sent and received per protocol endpoint, the
// rounds-per-stream distribution and the unconsumed-round counter.
type rpcMetrics struct {
	seconds     [epCount]*obs.Histogram
	bytesSent   [epCount]*obs.Counter
	bytesRecv   [epCount]*obs.Counter
	batchRounds *obs.Histogram
	specWasted  *obs.Counter

	// Host-grouped session instruments: one round-carrying exchange per
	// host advances every shard the host serves, so the fan-in histogram is
	// the direct read on how much RPC amplification host grouping removed.
	hostSessions *obs.Counter
	hostSeconds  *obs.Histogram
	hostShards   *obs.Histogram
}

// newRPCMetrics registers the wire instruments in r (idempotent).
func newRPCMetrics(r *obs.Registry) *rpcMetrics {
	m := &rpcMetrics{}
	for ep := 0; ep < epCount; ep++ {
		lbl := obs.L("endpoint", epNames[ep])
		m.seconds[ep] = r.Histogram("s3_coord_rpc_seconds",
			"Round-trip time of one worker RPC, by protocol endpoint.", nil, lbl)
		m.bytesSent[ep] = r.Counter("s3_coord_rpc_bytes_total",
			"Wire bytes exchanged with workers, by endpoint and direction.", lbl, obs.L("direction", "sent"))
		m.bytesRecv[ep] = r.Counter("s3_coord_rpc_bytes_total",
			"Wire bytes exchanged with workers, by endpoint and direction.", lbl, obs.L("direction", "recv"))
	}
	m.batchRounds = r.Histogram("s3_coord_round_batch",
		"Lockstep rounds read from one round stream (a /shard/v1/rounds reply, or the beginset reply that opened the session).",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	m.specWasted = r.Counter("s3_coord_spec_wasted_total",
		"Rounds a stream delivered that the search never consumed.")
	m.hostSessions = r.Counter("s3_coord_host_sessions_total",
		"Multi-shard host sessions established (one beginset covering 2+ shards).")
	m.hostSeconds = r.Histogram("s3_coord_host_rpc_seconds",
		"Round-trip time of one host-grouped round-carrying exchange (all co-hosted shards advanced at once).", nil)
	m.hostShards = r.Histogram("s3_coord_host_rpc_shards",
		"Shards advanced by one host-grouped round-carrying exchange (per-host round fan-in).",
		[]float64{1, 2, 4, 8, 16})
	return m
}

// observe records one finished RPC (nil-safe).
func (m *rpcMetrics) observe(ep int, start time.Time, sent, recv int) {
	if m == nil {
		return
	}
	m.seconds[ep].ObserveSince(start)
	m.bytesSent[ep].Add(uint64(sent))
	m.bytesRecv[ep].Add(uint64(recv))
}

func (m *rpcMetrics) observeBatch(rounds int) {
	if m != nil {
		m.batchRounds.Observe(float64(rounds))
	}
}

func (m *rpcMetrics) addSpecWasted(rounds int) {
	if m != nil && rounds > 0 {
		m.specWasted.Add(uint64(rounds))
	}
}

func (m *rpcMetrics) addHostSession() {
	if m != nil {
		m.hostSessions.Add(1)
	}
}

func (m *rpcMetrics) observeHostRPC(start time.Time, shards int) {
	if m != nil {
		m.hostSeconds.ObserveSince(start)
		m.hostShards.Observe(float64(shards))
	}
}

// newTransport returns an http.Transport tuned for the round protocol's
// hot path: searches reuse keep-alive connections to every worker, so the
// pool must retain idle connections across searches (per-worker headroom
// covers the async End post racing the next search's Begin; a stream the
// coordinator hung up on costs its connection). The membership probe
// shares this transport, which pre-warms every worker's connection before
// the first search dials.
func newTransport(workers int) *http.Transport {
	const perHost = 8
	if workers < 1 {
		workers = 1
	}
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: perHost,
		MaxIdleConns:        (workers + 1) * perHost,
		IdleConnTimeout:     90 * time.Second,
		// Bodies are small binary records; advertising gzip only buys a
		// per-response header dance.
		DisableCompression: true,
	}
}

// appError marks a worker-side rejection that every replica would repeat
// (the worker validated the request and said no).
type appError struct{ msg string }

func (e *appError) Error() string { return e.msg }

// reply is one open response body of the round protocol, with its bytes
// for the instruments and the RPC-timeout timer that cancels its request.
type reply struct {
	body     io.ReadCloser
	recv     int
	sent     int
	start    time.Time
	ep       int
	cancel   context.CancelFunc
	timeout  time.Duration
	timer    *time.Timer
	timedOut atomic.Bool
}

// Read reads the body, each call bounded by the RPC timeout: a stream that
// stalls between records fails over like a stalled RPC.
func (r *reply) Read(p []byte) (int, error) {
	if r.timer != nil {
		r.timer.Reset(r.timeout)
		defer r.timer.Stop()
	}
	n, err := r.body.Read(p)
	r.recv += n
	if err != nil && r.timedOut.Load() {
		err = fmt.Errorf("nothing read within %v: %w", r.timeout, err)
	}
	return n, err
}

// post sends one request record to an endpoint under ctx and returns the
// reply of a 200 — any other status is an error carrying the worker's
// message, and a 400 an appError. The caller closes the reply (close).
func (s *hostSession) post(ctx context.Context, ep int, payload []byte) (*reply, error) {
	path := epPaths[ep]
	frame := appendRecord(nil, payload)
	r := &reply{start: time.Now(), ep: ep, sent: len(frame), timeout: s.rpcTimeout}
	ctx, r.cancel = context.WithCancel(ctx)
	if r.timeout > 0 {
		r.timer = time.AfterFunc(r.timeout, func() {
			r.timedOut.Store(true)
			r.cancel()
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(frame))
	var resp *http.Response
	if err == nil {
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err = s.client.Do(req)
	}
	if r.timer != nil {
		r.timer.Stop() // Read re-arms it per read
	}
	if err != nil {
		s.close(r)
		return nil, fmt.Errorf("dshard: %s%s: %w", s.base, path, err)
	}
	if r.body = resp.Body; resp.StatusCode == http.StatusOK {
		return r, nil
	}
	body, _ := io.ReadAll(io.LimitReader(r, 1<<16))
	s.close(r)
	msg := fmt.Sprintf("dshard: %s%s: HTTP %d", s.base, path, resp.StatusCode)
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = fmt.Sprintf("dshard: %s%s: %s (HTTP %d)", s.base, path, e.Error, resp.StatusCode)
	}
	if resp.StatusCode == http.StatusBadRequest {
		// Deterministic rejection: retrying on another replica (or
		// benching this one) cannot help.
		return nil, &appError{msg: msg}
	}
	return nil, errors.New(msg)
}

// close ends a reply and records its round trip — a stream's lasts until
// it is read to its end or abandoned. An abandoned stream's connection is
// closed (Go does not reuse a half-read body), which ends the worker's
// request context: that is how the coordinator hangs up on a stream.
func (s *hostSession) close(r *reply) {
	if r.timer != nil {
		r.timer.Stop()
	}
	if r.body != nil {
		r.body.Close()
	}
	r.cancel()
	s.metrics.observe(r.ep, r.start, r.sent, r.recv)
}
