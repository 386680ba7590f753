// The coordinator's wire plumbing: the wire instruments, the tuned
// keep-alive transport, and fetch — the one request a search sends a
// worker host.
package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"s3/internal/dict"
	"s3/internal/index"
	"s3/internal/obs"
)

// rpcMetrics holds the coordinator's wire instruments: round-trip time of
// one postings fetch, and bytes sent and received.
type rpcMetrics struct {
	seconds   *obs.Histogram
	bytesSent *obs.Counter
	bytesRecv *obs.Counter
}

// newRPCMetrics registers the wire instruments in r (idempotent).
func newRPCMetrics(r *obs.Registry) *rpcMetrics {
	lbl := obs.L("endpoint", "postings")
	return &rpcMetrics{
		seconds: r.Histogram("s3_coord_rpc_seconds",
			"Round-trip time of one worker RPC, by endpoint: a postings fetch, its reply read to the end.", nil, lbl),
		bytesSent: r.Counter("s3_coord_rpc_bytes_total",
			"Wire bytes exchanged with workers, by endpoint and direction.", lbl, obs.L("direction", "sent")),
		bytesRecv: r.Counter("s3_coord_rpc_bytes_total",
			"Wire bytes exchanged with workers, by endpoint and direction.", lbl, obs.L("direction", "recv")),
	}
}

// observe records one finished fetch (nil-safe).
func (m *rpcMetrics) observe(start time.Time, sent, recv int) {
	if m == nil {
		return
	}
	m.seconds.ObserveSince(start)
	m.bytesSent.Add(uint64(sent))
	m.bytesRecv.Add(uint64(recv))
}

// newTransport returns an http.Transport tuned for the coordinator's hot
// path: every search fetches from each host of its cover over a kept-alive
// connection, so the pool retains idle connections across searches (the
// headroom covers concurrent searches). The membership probe shares this
// transport, which pre-warms every worker's connection before the first
// search dials.
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
		// Bodies are binary records; advertising gzip only buys a
		// per-response header dance.
		DisableCompression: true,
	}
}

// appError marks a worker-side rejection that every replica would repeat
// (the worker validated the request and said no).
type appError struct{ msg string }

func (e *appError) Error() string { return e.msg }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// fetch asks the worker at base for the events of kws on shards, bounded
// by the RPC timeout, and decodes the reply, vetting every event with
// check; a traced reply also yields the worker.postings span. Any non-200
// status is an error carrying the worker's message, a 400 an appError; a
// reply that fails its CRC, is cut short, has a tail other than a traced
// reply's or does not decode is an error like a reset.
func (c *Coordinator) fetch(ctx context.Context, base string, r postingsRequest, check blockCheck) ([]index.Flat, *obs.Span, error) {
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	frame := appendRecord(nil, appendPostingsRequest(nil, r))
	start := time.Now()
	body := &countingReader{}
	defer func() { c.metrics.observe(start, len(frame), body.n) }()
	fail := func(err error) ([]index.Flat, *obs.Span, error) {
		return nil, nil, fmt.Errorf("dshard: %s%s: %w", base, pathPostings, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+pathPostings, bytes.NewReader(frame))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	body.r = resp.Body
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(body, 1<<16))
		var e struct {
			Error string `json:"error"`
		}
		err := fmt.Errorf("HTTP %d", resp.StatusCode)
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			err = fmt.Errorf("%s (HTTP %d)", e.Error, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusBadRequest {
			// Deterministic rejection: retrying on another replica (or
			// benching this one) cannot help.
			return nil, nil, &appError{msg: fmt.Sprintf("dshard: %s%s: %v", base, pathPostings, err)}
		}
		return fail(err)
	}
	p, err := readBody(body)
	if err != nil {
		return fail(err)
	}
	parts, sp, err := decodePostingsReply(p, r.shards, r.kws, check, start)
	if err != nil {
		return fail(err)
	}
	return parts, sp, nil
}

// isFatal reports errors a failover cannot route around: deterministic
// rejections (every replica would repeat them) and the search's own
// cancellation.
func isFatal(ctx context.Context, err error) bool {
	var app *appError
	return errors.As(err, &app) || ctx.Err() != nil
}

// queryKeywords lists the keyword ids of a spec's groups once each, in
// ascending order: what a postings request asks for.
func queryKeywords(groups [][]dict.ID) []dict.ID {
	var kws []dict.ID
	for _, g := range groups {
		kws = append(kws, g...)
	}
	slices.Sort(kws)
	return slices.Compact(kws)
}
