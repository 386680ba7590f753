// The coordinator's wire plumbing: per-endpoint instruments, the tuned
// keep-alive transport, and the CRC-framed POST every session RPC goes
// through. The session logic built on it lives in hostclient.go.
package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
// batched-RPC round count distribution and the unconsumed-round counter.
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
		"Lockstep rounds returned by one round-carrying exchange (a /shard/v1/rounds RPC, or the beginset that opened the session).",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	m.specWasted = r.Counter("s3_coord_spec_wasted_total",
		"Rounds a worker executed that the search never consumed (the rest of its last batch).")
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
// hot path: a search multiplexes many small POST frames over one
// keep-alive connection per worker, so the pool must retain idle
// connections across rounds AND searches (per-worker headroom covers the
// async End post racing the next search's Begin). The membership probe
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
		// Frames are small binary bodies; advertising gzip only buys a
		// per-response header dance.
		DisableCompression: true,
	}
}

// appError marks a worker-side rejection that every replica would repeat
// (the worker validated the request and said no).
type appError struct{ msg string }

func (e *appError) Error() string { return e.msg }

// post sends one binary frame to an endpoint under the session's RPC
// context and returns the response frame in a pooled buffer, recording
// RTT and wire bytes into the coordinator's instruments. The caller owns
// the returned *frameBuf and must putFrame it once the frame is decoded
// (every decoder copies what it keeps).
func (s *hostSession) post(ep int, frame []byte) (*frameBuf, error) {
	return s.postCtx(s.ctx, ep, frame)
}

// postCtx is post under an explicit context (End's teardown must outlive
// a cancelled search context). Both directions carry a CRC-32C of the
// frame body: a corrupted reply — or one whose CRC header went missing —
// is a transport error here, never a silently perturbed payload, so bit
// flips trigger failover instead of breaking byte-identity.
func (s *hostSession) postCtx(ctx context.Context, ep int, frame []byte) (*frameBuf, error) {
	path := epPaths[ep]
	if s.rpcTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.rpcTimeout)
		defer cancel()
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(frame))
	if err != nil {
		return nil, fmt.Errorf("dshard: %s%s: %w", s.base, path, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(frameCRCHeader, frameCRC(frame))
	resp, err := s.client.Do(req)
	if err != nil {
		s.metrics.observe(ep, start, len(frame), 0)
		return nil, fmt.Errorf("dshard: %s%s: %w", s.base, path, err)
	}
	defer resp.Body.Close()
	fb := getFrame()
	body, err := readAllFrame(io.LimitReader(resp.Body, maxFrameSize+1), fb)
	s.metrics.observe(ep, start, len(frame), len(body))
	if err != nil {
		putFrame(fb)
		return nil, fmt.Errorf("dshard: %s%s: reading response: %w", s.base, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer putFrame(fb)
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
		return nil, fmt.Errorf("%s", msg)
	}
	if err := checkFrameCRC(body, resp.Header.Get(frameCRCHeader)); err != nil {
		putFrame(fb)
		return nil, fmt.Errorf("dshard: %s%s: %w", s.base, path, err)
	}
	fb.b = body
	return fb, nil
}
