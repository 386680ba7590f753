// Tests for the resilience layer: record CRC integrity, mis-sharded
// replies, the per-worker circuit breaker, the jittered probe schedule,
// worker drain across a restart, and membership refresh racing live
// searches.
package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/index"
	"s3/internal/snap"
)

// flipReply wraps a worker handler so that every postings reply reaches
// the coordinator with the byte at offset *at flipped (when the reply is
// that long) — corruption in transit, behind a CRC that still describes
// the original bytes.
func flipReply(inner http.Handler, at *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != pathPostings {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if k := at.Load(); k < int64(len(body)) {
			body[k] ^= 0x10
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	})
}

// TestFrameCRC covers record integrity: at the codec, every single bit
// flipped anywhere in a request or reply body is an error, never a
// perturbed event; the worker answers a request record that fails its CRC
// or arrives cut short with 422 (not 400 — transit corruption the
// coordinator must fail over on, never a deterministic rejection); and a
// byte flipped at any offset of a live reply is a transport failure the
// coordinator fails over on, keeping the answer exact.
func TestFrameCRC(t *testing.T) {
	fx := loadWireFixture()
	request := appendRecord(nil, appendPostingsRequest(nil, fx.req))
	for bit := 0; bit < 8*len(request); bit++ {
		p, err := readBody(bytes.NewReader(flipBit(request, uint32(bit))))
		if err == nil {
			_, err = decodePostingsRequest(p)
		}
		if err == nil {
			t.Fatalf("request bit %d flipped: decoded without error", bit)
		}
	}
	reply := appendRecord(nil, fx.reply)
	for bit := 0; bit < 8*len(reply); bit++ {
		if replyBodyErr(flipBit(reply, uint32(bit))) == nil {
			t.Fatalf("reply bit %d flipped: decoded without error", bit)
		}
	}

	manifestPath, set, workers, servers := smallTopology(t)
	post := func(body []byte) int {
		resp, err := http.Post(servers[0].URL+pathPostings, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	garbage := appendRecord(nil, []byte("not a postings request"))
	corrupt := bytes.Clone(garbage)
	corrupt[recordHeader+3] ^= 0x10
	if code := post(corrupt); code != http.StatusUnprocessableEntity {
		t.Fatalf("worker answered %d to a corrupt record, want 422", code)
	}
	if code := post(garbage[:len(garbage)-2]); code != http.StatusUnprocessableEntity {
		t.Fatalf("worker answered %d to a record cut short, want 422", code)
	}
	// With a matching CRC the same garbage is a malformed request: a
	// deterministic 400, which the coordinator must NOT fail over on.
	if code := post(garbage); code != http.StatusBadRequest {
		t.Fatalf("worker answered %d to a malformed request, want 400", code)
	}

	// A byte flipped at every offset of a live reply of shard 0's worker:
	// each fetch is a transport-class error, never an application
	// rejection and never a decoded reply.
	spec := deepQuery(t, set, 3)
	var at atomic.Int64
	flipped := httptest.NewServer(flipReply(workers[0].Handler(), &at))
	t.Cleanup(flipped.Close)
	urlsB, stopB := startWorkers(t, manifestPath, 2, snap.LoadMmap)
	defer stopB()
	coord := newCoordinator(t, set.Set.Layout, []string{flipped.URL, servers[1].URL, urlsB[0]})
	r := postingsRequest{shards: []int{0}, kws: queryKeywords(spec.Groups)}
	resp, err := http.Post(servers[0].URL+pathPostings, "application/octet-stream", bytes.NewReader(appendRecord(nil, appendPostingsRequest(nil, r))))
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(live))
	for k := int64(0); k < size; k++ {
		at.Store(k)
		_, _, err := coord.fetch(context.Background(), flipped.URL, r, coord.sub.Load().check)
		var app *appError
		if err == nil || errors.As(err, &app) {
			t.Fatalf("byte %d of %d flipped: fetch returned %v, want a transport error", k, size, err)
		}
	}

	// End to end: shard 0's clean replica keeps every search exact while
	// the corrupting hop flips a byte in the record header, the payload or
	// its last byte.
	clean := newCoordinator(t, set.Set.Layout, []string{servers[0].URL, servers[1].URL})
	wantSel, wantStats, err := clean.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 5, recordHeader + 1, size / 2, size - 1} {
		at.Store(k)
		for i := 0; i < 2; i++ {
			sel, stats, err := coord.Search(spec, core.CoordOptions{})
			if err != nil {
				t.Fatalf("search behind a hop flipping byte %d: %v", k, err)
			}
			if got, want := metaTranscript(sel, stats), metaTranscript(wantSel, wantStats); got != want {
				t.Fatalf("answer diverged behind a hop flipping byte %d\nwant:\n%s\ngot:\n%s", k, want, got)
			}
		}
	}
	if coord.failovers.Load() == 0 {
		t.Fatal("flipped replies never triggered a failover")
	}
}

// swapShards wraps a worker handler hosting shards 0 and 1 so that it
// answers a postings request for one of them with the other's events — a
// mis-sharded worker whose reply is well formed.
func swapShards(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == pathPostings {
			p, err := readBody(req.Body)
			r, derr := decodePostingsRequest(p)
			if err != nil || derr != nil {
				http.Error(rw, "bad request", http.StatusBadRequest)
				return
			}
			for i, s := range r.shards {
				r.shards[i] = 1 - s
			}
			req.Body = io.NopCloser(bytes.NewReader(appendRecord(nil, appendPostingsRequest(nil, r))))
		}
		inner.ServeHTTP(rw, req)
	})
}

// repeatEvent wraps a worker handler so that every postings reply repeats
// the first event of its first non-empty block: the reply decoded and
// encoded again by appendEvents, a well-formed reply under a valid CRC
// that counts one connection twice.
func repeatEvent(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != pathPostings {
			inner.ServeHTTP(rw, req)
			return
		}
		p, err := readBody(req.Body)
		r, derr := decodePostingsRequest(p)
		if err != nil || derr != nil {
			http.Error(rw, "bad request", http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(appendRecord(nil, p)))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		reply, err := readBody(bytes.NewReader(rec.Body.Bytes()))
		if rec.Code != http.StatusOK || err != nil {
			http.Error(rw, "worker failed", http.StatusInternalServerError)
			return
		}
		parts, sp, err := decodePostingsReply(reply, r.shards, r.kws, acceptAll, time.Now())
		if err != nil {
			http.Error(rw, "worker reply failed to decode", http.StatusInternalServerError)
			return
		}
		e, repeated := &enc{}, false
		for j := range parts {
			for _, k := range r.kws {
				evs := parts[j].Events(k)
				if len(evs) > 0 && !repeated {
					evs = append([]index.Event{evs[0]}, evs...)
					repeated = true
				}
				appendEvents(e, evs)
			}
		}
		encodeSpanBlock(e, sp)
		rw.Write(appendRecord(nil, e.b))
	})
}

// wantFailoverExact runs the chaos battery against two workers that each
// host both shards of the small topology, the first behind wrap: every
// answer must equal the reference, and the first worker's replies must
// have been failed over at least once. It returns the coordinator.
func wantFailoverExact(t *testing.T, wrap func(http.Handler) http.Handler, what string) *Coordinator {
	t.Helper()
	manifestPath, set, _, _ := smallTopology(t)
	var urls []string
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0, 1}, Mode: snap.LoadMmap})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		h := w.Handler()
		if i == 0 {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	coord := newCoordinator(t, set.Set.Layout, urls)
	for qi, q := range chaosQueries(t, set) {
		sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if got := metaTranscript(sel, stats); got != q.want {
			t.Fatalf("query %d: answer diverged behind %s\nwant:\n%s\ngot:\n%s", qi, what, q.want, got)
		}
	}
	if coord.failovers.Load() == 0 {
		t.Fatalf("the replies of %s never triggered a failover", what)
	}
	return coord
}

// TestFailoverOnMisShardedReply: a worker answering for the wrong shard
// sends events the layout assigns elsewhere; the coordinator rejects the
// reply and fails its shards over to a replica, so the answer stays exact
// instead of duplicating candidates.
func TestFailoverOnMisShardedReply(t *testing.T) {
	wantFailoverExact(t, swapShards, "a mis-sharded worker")
}

// TestFailoverOnRepeatedEvent: a worker whose reply repeats an event would
// count that connection twice, in the candidates' scores and in the run
// bound. The coordinator rejects a block that is not strictly in canonical
// order and fails its shards over to a replica, so the answer stays exact.
// The refusal must be the order check's, not a decoding failure.
func TestFailoverOnRepeatedEvent(t *testing.T) {
	coord := wantFailoverExact(t, repeatEvent, "a worker repeating an event")
	if msg := coord.Stats().Workers[0].Error; !strings.Contains(msg, "out of canonical order") {
		t.Fatalf("the repeating worker was benched for %q, want the canonical-order refusal", msg)
	}
}

// deepQuery finds a query of the set's battery whose search runs at least
// minRounds rounds.
func deepQuery(t *testing.T, set *snap.ShardSetSnapshot, minRounds int) core.SearchSpec {
	t.Helper()
	for _, q := range chaosQueries(t, set) {
		if q.iters >= minRounds {
			return q.spec
		}
	}
	t.Fatalf("no query runs %d rounds", minRounds)
	return core.SearchSpec{}
}

// stubHealthz serves a minimal worker /healthz (+ empty /stats) whose
// health is toggled by the test: the breaker tests drive probe outcomes
// without paying for a real worker.
func stubHealthz(t *testing.T, setID uint64, healthy *atomic.Bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		if !healthy.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(rw).Encode(map[string]any{"status": "draining"})
			return
		}
		json.NewEncoder(rw).Encode(map[string]any{
			"status": "serving", "shards": []int{0}, "shard_count": 1,
			"set_id": fmt.Sprintf("%016x", setID), "proto": protoVersion,
		})
	})
	mux.HandleFunc("/stats", func(rw http.ResponseWriter, req *http.Request) {
		rw.Write([]byte("{}"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestBreakerStateMachine drives the per-worker circuit breaker through
// its full cycle: failures open it, a healthy probe half-opens it, the
// half-open state admits exactly one trial, a passed trial (or two
// consecutive healthy probes, for an idle fleet) closes it, and a failed
// trial re-opens it.
func TestBreakerStateMachine(t *testing.T) {
	const setID = 0x5e71d
	var healthy atomic.Bool
	healthy.Store(true)
	srv := stubHealthz(t, setID, &healthy)

	c, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: []string{srv.URL}, ShardCount: 1, SetID: setID,
		ProbeInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := c.workers[0]
	state := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.brState
	}

	c.probeWorker(ctx, w)
	if state() != brClosed {
		t.Fatalf("breaker %s after a healthy probe, want closed", breakerName(state()))
	}

	// Below the threshold the breaker stays closed (the worker is benched
	// by healthy=false, but not held open).
	boom := fmt.Errorf("boom")
	c.noteWorkerFailure(w, boom)
	c.noteWorkerFailure(w, boom)
	if state() != brClosed {
		t.Fatalf("breaker %s after %d failures, want closed", breakerName(state()), breakerThreshold-1)
	}
	c.noteWorkerFailure(w, boom)
	if state() != brOpen {
		t.Fatalf("breaker %s after %d failures, want open", breakerName(state()), breakerThreshold)
	}
	w.mu.Lock()
	window := time.Until(w.openUntil)
	level := w.brLevel
	w.mu.Unlock()
	if level != 1 {
		t.Fatalf("first trip at level %d, want 1", level)
	}
	// Full jitter over [interval/2, interval].
	if window < 400*time.Millisecond || window > 1100*time.Millisecond {
		t.Fatalf("level-1 open window %v outside [0.5s, 1s]", window)
	}
	if _, err := c.pickShard(0, nil); err == nil {
		t.Fatal("open worker admitted a search")
	}

	// A healthy probe half-opens; the half-open state hands out exactly
	// one trial token.
	c.probeWorker(ctx, w)
	if state() != brHalfOpen {
		t.Fatalf("breaker %s after a healthy probe of an open worker, want half-open", breakerName(state()))
	}
	if _, err := c.pickShard(0, nil); err != nil {
		t.Fatalf("half-open worker refused its trial: %v", err)
	}
	if _, err := c.pickShard(0, nil); err == nil {
		t.Fatal("half-open worker admitted a second concurrent search")
	}
	c.noteWorkerSuccess(w)
	if state() != brClosed {
		t.Fatalf("breaker %s after a passed trial, want closed", breakerName(state()))
	}

	// A failed trial re-opens immediately (no threshold for half-open).
	for i := 0; i < breakerThreshold; i++ {
		c.noteWorkerFailure(w, boom)
	}
	c.probeWorker(ctx, w)
	if _, err := c.pickShard(0, nil); err != nil {
		t.Fatalf("half-open worker refused its trial: %v", err)
	}
	c.noteWorkerFailure(w, boom)
	if state() != brOpen {
		t.Fatalf("breaker %s after a failed trial, want open", breakerName(state()))
	}

	// Idle recovery: two consecutive healthy probes close a half-open
	// breaker with no search traffic at all.
	c.probeWorker(ctx, w)
	if state() != brHalfOpen {
		t.Fatalf("breaker %s, want half-open", breakerName(state()))
	}
	c.probeWorker(ctx, w)
	if state() != brClosed {
		t.Fatalf("breaker %s after %d healthy probes, want closed", breakerName(state()), halfOpenProbes)
	}
}

// TestBreakerBackoff: consecutive trips grow the open window
// exponentially — with full jitter, capped at breakerMaxLevel.
func TestBreakerBackoff(t *testing.T) {
	const interval = time.Second
	c, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: []string{"http://w0"}, ShardCount: 1, SetID: 1,
		ProbeInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := c.workers[0]
	for trip := 1; trip <= breakerMaxLevel+2; trip++ {
		w.mu.Lock()
		c.openBreakerLocked(w)
		level, window := w.brLevel, time.Until(w.openUntil)
		next := w.nextProbe
		until := w.openUntil
		w.mu.Unlock()
		wantLevel := trip
		if wantLevel > breakerMaxLevel {
			wantLevel = breakerMaxLevel
		}
		if level != wantLevel {
			t.Fatalf("trip %d: level %d, want %d", trip, level, wantLevel)
		}
		d := interval << (wantLevel - 1)
		if window < d/2-100*time.Millisecond || window > d+100*time.Millisecond {
			t.Fatalf("trip %d: open window %v outside [%v, %v]", trip, window, d/2, d)
		}
		if !next.Equal(until) {
			t.Fatalf("trip %d: next probe %v != open window end %v", trip, next, until)
		}
	}
}

// TestProbeJitter is the thundering-herd regression: per-worker probe
// times must spread over the ±25% jitter window instead of landing every
// worker on the same tick, and an open worker's next probe must be its
// (already backed-off, jittered) window end.
func TestProbeJitter(t *testing.T) {
	const interval = time.Second
	c, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: []string{"http://w0"}, ShardCount: 1, SetID: 1,
		ProbeInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := c.workers[0]
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		c.scheduleProbe(w)
		w.mu.Lock()
		d := time.Until(w.nextProbe)
		w.mu.Unlock()
		if d < interval*3/4-50*time.Millisecond || d > interval*5/4+50*time.Millisecond {
			t.Fatalf("probe scheduled %v out, outside %v±25%%", d, interval)
		}
		seen[d.Round(time.Millisecond)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("probe schedule collapsed onto %d distinct offsets over 64 draws — jitter missing", len(seen))
	}

	w.mu.Lock()
	w.brState = brOpen
	w.openUntil = time.Now().Add(42 * time.Second)
	w.mu.Unlock()
	c.scheduleProbe(w)
	w.mu.Lock()
	next, until := w.nextProbe, w.openUntil
	w.brState = brClosed
	w.mu.Unlock()
	if !next.Equal(until) {
		t.Fatalf("open worker's next probe %v, want its window end %v", next, until)
	}
}

// TestWorkerDrainAndRestart is the graceful-shutdown path: a draining
// worker refuses new requests while its HTTP server's Shutdown lets the
// one in flight finish, the fleet keeps answering byte-identically
// through the replica meanwhile, and a restarted worker on the same
// address rejoins membership.
func TestWorkerDrainAndRestart(t *testing.T) {
	manifestPath, set, workers, servers := smallTopology(t)
	urlsB, stopB := startWorkers(t, manifestPath, 2, snap.LoadMmap)
	defer stopB()

	// Shard 0's worker A holds every postings reply it has computed until
	// the test releases it.
	held, release := make(chan struct{}, 1), make(chan struct{})
	inner := workers[0].Handler()
	a := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != pathPostings {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		held <- struct{}{}
		<-release
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	coord := newCoordinator(t, set.Set.Layout, []string{a.URL, servers[1].URL, urlsB[0]})
	spec := deepQuery(t, set, 2)
	clean := newCoordinator(t, set.Set.Layout, []string{servers[0].URL, servers[1].URL})
	wantSel, wantStats, err := clean.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := metaTranscript(wantSel, wantStats)

	// A fetch in flight on A, then SIGTERM's sequence: drain, shut down.
	r := postingsRequest{shards: []int{0}, kws: queryKeywords(spec.Groups)}
	inflight := make(chan error, 1)
	go func() {
		_, _, err := coord.fetch(context.Background(), a.URL, r, coord.sub.Load().check)
		inflight <- err
	}()
	<-held
	workers[0].SetDraining()
	shutdown := make(chan error, 1)
	go func() { shutdown <- a.Config.Shutdown(context.Background()) }()
	if code := postPostings(t, servers[0].URL, r); code != http.StatusServiceUnavailable {
		t.Fatalf("draining worker answered a new request with %d, want 503", code)
	}
	// The fleet keeps answering through the replica.
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sel, stats, err := coord.Search(spec, core.CoordOptions{})
		if err != nil {
			t.Fatalf("search %d while draining: %v", i, err)
		}
		if got := metaTranscript(sel, stats); got != want {
			t.Fatalf("answer diverged while worker drained\nwant:\n%s\ngot:\n%s", want, got)
		}
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("the fetch in flight at the drain failed: %v", err)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart on the same address: the freed port is rebound, a fresh
	// worker loads, and the coordinator's probe readmits it.
	addr := a.Listener.Addr().String()
	a.Close()
	var ln net.Listener
	waitUntil(t, 5*time.Second, func() bool {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return false
		}
		ln = l
		return true
	})
	w2 := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0}, Mode: snap.LoadMmap})
	if err := w2.Load(); err != nil {
		t.Fatal(err)
	}
	restarted := &httptest.Server{Listener: ln, Config: &http.Server{Handler: w2.Handler()}}
	restarted.Start()
	t.Cleanup(restarted.Close)

	if err := coord.Probe(context.Background()); err != nil {
		t.Fatalf("probe after restart: %v", err)
	}
	back := false
	for _, ws := range coord.Stats().Workers {
		if ws.URL == "http://"+addr && ws.Healthy {
			back = true
		}
	}
	if !back {
		t.Fatal("restarted worker did not rejoin membership")
	}
	sel, stats, err := coord.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := metaTranscript(sel, stats); got != want {
		t.Fatalf("answer diverged after restart\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestMembershipRefreshDuringSearches races the background probe loop
// against concurrent searches (run under -race in CI): membership
// refresh must never perturb an answer or trip the race detector.
func TestMembershipRefreshDuringSearches(t *testing.T) {
	_, set, _, servers := smallTopology(t)
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls, ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
		Client:        &http.Client{Timeout: 10 * time.Second},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx)

	spec := deepQuery(t, set, 2)
	wantSel, wantStats, err := coord.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := metaTranscript(wantSel, wantStats)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				sel, stats, err := coord.Search(spec, core.CoordOptions{})
				if err != nil {
					errs <- err
					return
				}
				if got := metaTranscript(sel, stats); got != want {
					errs <- fmt.Errorf("answer diverged under concurrent membership refresh")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
