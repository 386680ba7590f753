// Tests for /shard/v1/rounds streams, the beginset request's trace
// id and deadline, the probe's protocol-version check, worker-side warm
// frontiers and the tuned coordinator transport.
package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/score"
	"s3/internal/snap"
)

// TestBatchedWireRoundTrip mirrors TestWireRoundTrip for the rounds
// request and a rounds stream: exact round trips, plus rejection of
// truncated, padded, empty, miscounted and over-cap streams.
func TestBatchedWireRoundTrip(t *testing.T) {
	rr := roundsRequest{searchID: 99, from: 7, max: 16}
	gotRR, err := decodeRoundsRequest(appendRoundsRequest(nil, rr))
	if err != nil {
		t.Fatal(err)
	}
	if gotRR != rr {
		t.Fatalf("rounds request round trip: %+v != %+v", gotRR, rr)
	}
	if _, err := decodeRoundsRequest(appendRoundsRequest(nil, roundsRequest{searchID: 1, from: 1, max: 0})); err == nil {
		t.Error("zero-round rounds request accepted")
	}
	if _, err := decodeRoundsRequest(appendRoundsRequest(nil, roundsRequest{searchID: 1, from: 1, max: maxWorkerBatch + 1})); err == nil {
		t.Error("oversized rounds request accepted")
	}
	reqFrame := appendRoundsRequest(nil, rr)
	for cut := 0; cut < len(reqFrame); cut++ {
		if _, err := decodeRoundsRequest(reqFrame[:cut]); err == nil {
			t.Fatalf("truncated rounds request (%d bytes) accepted", cut)
		}
	}
	if _, err := decodeRoundsRequest(append(bytes.Clone(reqFrame), 0)); err == nil {
		t.Error("trailing garbage on rounds request accepted")
	}

	// Three rounds of a two-member session, round-major.
	const ns = 2
	flat := []core.RoundInfo{
		{N: 1, Reached: 4, Tail: math.Pow(1.5, -1), SourceTail: 1},
		{N: 1, Reached: 4, Tail: math.Pow(1.5, -1), SourceTail: 1, Admitted: 1, Candidates: 2},
		{
			Kept:      []core.CandMeta{{Doc: 4, Lower: 0.25, Upper: 0.5}, {Doc: 9, Lower: 0, Upper: 0.5}},
			Uncertain: &core.CandMeta{Doc: 11, Lower: 0.1, Upper: 0.3},
			MaxOther:  0.125, Admitted: 2, Candidates: 6, Reached: 19,
			N: 2, Tail: math.Pow(1.5, -2), SourceTail: math.Pow(1.5, -1),
		},
		{N: 2, Reached: 19, Admitted: 1, Candidates: 2, Tail: math.Pow(1.5, -2), SourceTail: math.Pow(1.5, -1),
			Kept: []core.CandMeta{{Doc: 5, Lower: 0.125, Upper: 0.25}}},
		{N: 3, Reached: 21, Admitted: 2, Candidates: 6, Done: true},
		{N: 3, Reached: 21, Admitted: 1, Candidates: 2, Done: true},
	}
	frame := encodeStream(ns, nil, flat)
	_, rows, err := decodeStream(frame, ns, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(flat)/ns {
		t.Fatalf("rounds stream carried %d rounds, want %d", len(rows), len(flat)/ns)
	}
	for i := range flat {
		want, have := flat[i], rows[i/ns][i%ns]
		if (want.Uncertain == nil) != (have.Uncertain == nil) {
			t.Fatalf("block %d uncertain presence diverged", i)
		}
		if want.Uncertain != nil && *want.Uncertain != *have.Uncertain {
			t.Fatalf("block %d uncertain: %+v != %+v", i, have.Uncertain, want.Uncertain)
		}
		want.Uncertain, have.Uncertain = nil, nil
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", have) {
			t.Fatalf("block %d round trip: %+v != %+v", i, have, want)
		}
	}
	// A stream for a different member count than the session's is rejected.
	if _, _, err := decodeStream(frame, ns+1, 3, false); err == nil {
		t.Error("rounds stream with the wrong shard count accepted")
	}
	// A stream that ends before its first round is a protocol violation
	// (the worker steps at least once or says nothing), as is one carrying
	// a round past its cap, or a trailer that miscounts.
	if _, _, err := decodeStream(encodeStream(ns, nil, nil), ns, 3, false); err == nil {
		t.Error("empty rounds stream accepted")
	}
	if _, _, err := decodeStream(encodeStream(ns, nil, flat[:4]), ns, 1, false); err == nil {
		t.Error("over-cap rounds stream accepted")
	}
	miscounted := appendTrailer(appendRoundRecord(nil, flat[:ns], nil), 2)
	if _, _, err := decodeStream(miscounted, ns, 1, false); err == nil {
		t.Error("trailer miscounting its stream accepted")
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := decodeStream(frame[:cut], ns, 3, false); err == nil {
			t.Fatalf("truncated rounds stream (%d bytes) accepted", cut)
		}
	}
	if _, _, err := decodeStream(append(bytes.Clone(frame), 0), ns, 3, false); err == nil {
		t.Error("bytes past the trailer accepted")
	}
}

// TestBeginDeadlineWire covers the beginset frame's trace id and deadline
// in every combination of set and zero — and that neither changes how the
// rest of the frame decodes.
func TestBeginDeadlineWire(t *testing.T) {
	base := beginSetRequest{
		searchID: 7,
		shards:   []int{2, 0},
		spec: core.SearchSpec{
			Seeker: 3, K: 10,
			Params:  score.Params{Gamma: 1.25, Eta: 0.8},
			Epsilon: 1e-12,
			Groups:  [][]dict.ID{{1, 2, 9}, {42}},
		},
	}
	for _, tc := range []struct{ traceID, deadline uint64 }{
		{0, 0},
		{0xfeed, 0},
		{0xfeed, 1_500_000},
		{0, 2_000_000},
	} {
		r := base
		r.traceID, r.deadlineMicros = tc.traceID, tc.deadline
		got, err := decodeBeginSetRequest(encodeBeginSetRequest(r))
		if err != nil {
			t.Fatalf("trace=%#x deadline=%d: %v", tc.traceID, tc.deadline, err)
		}
		if got.traceID != tc.traceID || got.deadlineMicros != tc.deadline {
			t.Fatalf("trailing fields round trip: got trace=%#x deadline=%d, want trace=%#x deadline=%d",
				got.traceID, got.deadlineMicros, tc.traceID, tc.deadline)
		}
		if fmt.Sprintf("%+v", got.spec) != fmt.Sprintf("%+v", base.spec) {
			t.Fatalf("spec perturbed by trailing fields: %+v", got.spec)
		}
	}
	// The trailing fields are fixed: a frame cut anywhere inside them is
	// rejected.
	r := base
	r.traceID, r.deadlineMicros = 0xfeed, 1_000_000
	frame := encodeBeginSetRequest(r)
	for _, cut := range []int{1, 4, 7, 12, 15, 20} {
		if _, err := decodeBeginSetRequest(frame[:len(frame)-cut]); err == nil {
			t.Errorf("beginset frame truncated by %d bytes accepted", cut)
		}
	}
}

// smallSpec is the corpus the transport tests share: big enough to need
// several rounds, small enough to keep the battery fast.
func smallSpec() graph.Spec {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 50, 180, 13
	spec, _ := datagen.Twitter(o)
	return spec
}

// smallTopology builds a 2-shard set with live workers and returns the
// manifest path, the opened set, the worker objects and their servers.
func smallTopology(t *testing.T) (string, *snap.ShardSetSnapshot, []*Worker, []*httptest.Server) {
	t.Helper()
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	workers := make([]*Worker, 2)
	servers := make([]*httptest.Server, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{ManifestPath: manifestPath, Shard: i, Mode: snap.LoadMmap})
		if err := workers[i].Load(); err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(workers[i].Handler())
		t.Cleanup(servers[i].Close)
	}
	return manifestPath, set, workers, servers
}

// openSession opens a one-shard session on a worker, bypassing the
// coordinator; the returned view drives it like any ShardExecutor.
func openSession(url string, id uint64, shard int) *hostShardView {
	return newHostSession(context.Background(), http.DefaultClient, url, id, []int{shard}).views[0]
}

// rewriteProto wraps a worker handler so /healthz advertises proto (or,
// when proto is nil, omits the field) while on is set.
func rewriteProto(inner http.Handler, on *atomic.Bool, proto *int) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/healthz" || !on.Load() {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		delete(m, "proto")
		if proto != nil {
			m["proto"] = *proto
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(rec.Code)
		json.NewEncoder(rw).Encode(m)
	})
}

// TestProtoVersionMismatch: there is one protocol version and no
// negotiation. A worker whose /healthz reports any other version — or
// none — is listed unhealthy with both version numbers, is never picked,
// and leaves its shard uncovered; once it reports the coordinator's
// version again the next probe readmits it.
func TestProtoVersionMismatch(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	older := protoVersion - 1
	// One probe session for both cases: deepQuery numbers its sessions from
	// a fixed id and ends them asynchronously, so a second call can find
	// the first one's session still open on the worker (409).
	spec := deepQuery(t, set, servers[0], 1)
	for name, proto := range map[string]*int{"older": &older, "absent": nil} {
		var rewrite atomic.Bool
		rewrite.Store(true)
		proxy := httptest.NewServer(rewriteProto(workers[1].Handler(), &rewrite, proto))
		t.Cleanup(proxy.Close)
		coord, err := NewCoordinator(CoordinatorConfig{
			WorkerURLs: []string{servers[0].URL, proxy.URL},
			ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
			Client: &http.Client{Timeout: 10 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		err = coord.Probe(context.Background())
		if err == nil || !strings.Contains(err.Error(), "no healthy worker for shard 1") {
			t.Fatalf("%s: probe over a mismatched worker returned %v, want no healthy worker for shard 1", name, err)
		}
		reported := 0
		if proto != nil {
			reported = *proto
		}
		for _, ws := range coord.Stats().Workers {
			if ws.URL != proxy.URL {
				if !ws.Healthy {
					t.Fatalf("%s: matching worker %s benched: %s", name, ws.URL, ws.Error)
				}
				continue
			}
			if ws.Healthy {
				t.Fatalf("%s: mismatched worker reported healthy", name)
			}
			if want := fmt.Sprintf("speaks round protocol %d, coordinator speaks %d", reported, protoVersion); !strings.Contains(ws.Error, want) {
				t.Fatalf("%s: error %q does not name both versions (%q)", name, ws.Error, want)
			}
		}
		if _, err := coord.pickShard(1, nil); err == nil {
			t.Fatalf("%s: mismatched worker picked for shard 1", name)
		}
		if _, _, err := coord.Search(spec, core.CoordOptions{}); err == nil {
			t.Fatalf("%s: search succeeded with shard 1 only on a mismatched worker", name)
		}

		rewrite.Store(false)
		if err := coord.Probe(context.Background()); err != nil {
			t.Fatalf("%s: probe after the rewrite was lifted: %v", name, err)
		}
		if _, _, err := coord.Search(spec, core.CoordOptions{}); err != nil {
			t.Fatalf("%s: search after readmission: %v", name, err)
		}
	}
}

// TestWorkerDeadlineSweep: a session carrying a coordinator-propagated
// deadline is abandoned at that deadline by the sweeper, long before
// the idle TTL; sessions without one ride the TTL as before.
func TestWorkerDeadlineSweep(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	in := set.Set.Base
	seekers, kwSets := queries(in)
	groups, possible, err := core.ResolveKeywordGroups(in, kwSets[0])
	if err != nil || !possible {
		t.Fatal("unusable query")
	}
	spec := core.SearchSpec{Seeker: seekers[0], Groups: groups, K: 3,
		Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}

	w, srv := workers[0], servers[0]
	// Session 1: budgeted search — ships a deadline (budget + grace).
	budgeted := openSession(srv.URL, 101, 0)
	budgeted.s.budget = 500 * time.Millisecond
	if _, err := budgeted.Begin(spec); err != nil {
		t.Fatal(err)
	}
	// Session 2: no budget, no deadline.
	plain := openSession(srv.URL, 102, 0)
	if _, err := plain.Begin(spec); err != nil {
		t.Fatal(err)
	}

	sessions := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.sessions)
	}
	if got := sessions(); got != 2 {
		t.Fatalf("worker holds %d sessions, want 2", got)
	}
	deadline := func(id uint64) time.Time {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.sessions[id].deadline
	}
	if deadline(101).IsZero() {
		t.Fatal("budgeted session has no deadline")
	}
	if !deadline(102).IsZero() {
		t.Fatal("unbudgeted session grew a deadline")
	}

	// Sweep as if 10 seconds passed: past the 500ms budget + 2s grace,
	// well inside the 60s idle TTL.
	w.mu.Lock()
	w.sweepSessions(time.Now().Add(10 * time.Second))
	remaining := len(w.sessions)
	_, plainAlive := w.sessions[102]
	w.mu.Unlock()
	if remaining != 1 || !plainAlive {
		t.Fatalf("after deadline sweep: %d sessions (plain alive=%v), want only the unbudgeted one",
			remaining, plainAlive)
	}
}

// TestWorkerWarmResume: two searches for the same seeker against one
// worker — the second must resume the cached frontier (warm-resume
// counter) and answer byte-identically.
func TestWorkerWarmResume(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	coordURLs := make([]string, len(servers))
	for i, srv := range servers {
		coordURLs[i] = srv.URL
	}
	coord := newCoordinator(t, set.Set.Layout, coordURLs)

	in := set.Set.Base
	seekers, kwSets := queries(in)
	groups, possible, err := core.ResolveKeywordGroups(in, kwSets[0])
	if err != nil || !possible {
		t.Fatal("unusable query")
	}
	spec := core.SearchSpec{Seeker: seekers[0], Groups: groups, K: 5,
		Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}

	first, fstats, err := coord.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// End is asynchronous; the frontier publishes when the worker closes
	// the session. Wait for both workers to drain.
	waitUntil(t, 3*time.Second, func() bool {
		for _, w := range workers {
			w.mu.Lock()
			n := len(w.sessions)
			w.mu.Unlock()
			if n != 0 {
				return false
			}
		}
		return true
	})

	second, sstats, err := coord.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := metaTranscript(first, fstats), metaTranscript(second, sstats); got != want {
		t.Fatalf("warm answer diverged\ncold:\n%s\nwarm:\n%s", want, got)
	}
	warm := uint64(0)
	for _, w := range workers {
		warm += w.warmResumes.Load()
	}
	if warm == 0 {
		t.Fatal("no worker resumed a cached frontier on the repeated seeker")
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoRedialAcrossSearch: the membership probe pre-warms the tuned
// keep-alive transport, so a whole search — begin, streamed rounds,
// finalize, end — dials no connection but the one per host that replaces
// the stream it hung up on (a half-read reply's connection is closed).
func TestNoRedialAcrossSearch(t *testing.T) {
	_, set, _, servers := smallTopology(t)
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.URL
	}

	var dials atomic.Int32
	tr := newTransport(len(urls))
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls, ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
		Client: &http.Client{Timeout: 10 * time.Second, Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	if dials.Load() == 0 {
		t.Fatal("probe did not dial (instrumentation broken?)")
	}

	in := set.Set.Base
	seekers, kwSets := queries(in)
	groups, possible, err := core.ResolveKeywordGroups(in, kwSets[0])
	if err != nil || !possible {
		t.Fatal("unusable query")
	}
	spec := core.SearchSpec{Seeker: seekers[0], Groups: groups, K: 5,
		Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}

	// Warm-up search: its async End may overlap the next begin and cost
	// an extra connection; let it finish before measuring.
	if _, _, err := coord.Search(spec, core.CoordOptions{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	before := dials.Load()
	if _, _, err := coord.Search(spec, core.CoordOptions{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if after := dials.Load(); after-before > int32(len(urls)) {
		t.Fatalf("search re-dialed %d times to %d hosts over the pre-warmed transport", after-before, len(urls))
	}
}
