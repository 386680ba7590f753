// Tests for the resilience layer: the fast-forward identity property,
// record CRC integrity, the per-worker circuit breaker,
// the jittered probe schedule, worker drain across a restart, and
// membership refresh racing live searches.
package dshard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/score"
	"s3/internal/snap"
)

// flipRecord wraps a worker handler so the k-th record of every beginset
// reply reaches the coordinator with one payload byte flipped — corruption
// in transit, behind a CRC that still describes the original bytes.
func flipRecord(inner http.Handler, k int) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != pathBeginSet {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		off := 0
		for i := 0; i < k && off+recordHeader <= len(body); i++ {
			off += recordHeader + int(binary.LittleEndian.Uint32(body[off:]))
		}
		if off+recordHeader < len(body) {
			body[off+recordHeader] ^= 0x10
		}
		for h, vs := range rec.Header() {
			rw.Header()[h] = vs
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	})
}

// TestFrameCRC covers record integrity: at the codec, every single bit
// flipped anywhere in a stream is an error, never a perturbed round; the
// worker answers a request record that fails its CRC or arrives cut short
// with 422 (not 400 — transit corruption the coordinator must retry, never
// a deterministic rejection); and a flipped byte in any record of a reply
// is a transport failure the coordinator fails over on.
func TestFrameCRC(t *testing.T) {
	const ns = 2
	begins := []core.BeginInfo{{Matched: 3, GroupMasses: [][]int32{{5, 0, 7}, {2}, {1, 1}}}, {GroupMasses: [][]int32{{0, 0, 0}, {0}, {0, 0}}}}
	pristine := encodeStream(ns, begins, sampleRoundInfos())
	for bit := 0; bit < 8*len(pristine); bit++ {
		checkFlippedStream(t, pristine, ns, streamFuzzCap, uint32(bit))
	}

	manifestPath, set, workers, servers := smallTopology(t)
	post := func(body []byte) int {
		resp, err := http.Post(servers[0].URL+pathBeginSet, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	garbage := appendRecord(nil, []byte("round protocol frame"))
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

	// A byte flipped in the begin record, the first round's or the second
	// round's: the session records a transport-class error (the failover
	// trigger) on the call that reads it, never an application rejection
	// and never a decoded round.
	spec := deepQuery(t, set, servers[0], 3)
	for k := 0; k < 3; k++ {
		flipped := httptest.NewServer(flipRecord(workers[0].Handler(), k))
		v := openSession(flipped.URL, uint64(6601+k), 0)
		_, err := v.Begin(spec)
		for r := 0; r < k && err == nil; r++ {
			_, err = v.Round()
		}
		var app *appError
		if err == nil || errors.As(err, &app) || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("record %d flipped: returned %v, want a CRC transport error", k, err)
		}
		if v.s.err == nil {
			t.Fatalf("record %d flipped: session did not latch the transport error", k)
		}
		v.End()
		flipped.Close()
	}

	// End to end: shard 0's only clean replica keeps the search exact when
	// the other one sits behind the corrupting hop.
	urlsB, stopB := startWorkers(t, manifestPath, 2, snap.LoadMmap)
	defer stopB()
	clean := newCoordinator(t, set.Set.Layout, []string{servers[0].URL, servers[1].URL})
	wantSel, wantStats, err := clean.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flipped := httptest.NewServer(flipRecord(workers[0].Handler(), 1))
	t.Cleanup(flipped.Close)
	coord := newCoordinator(t, set.Set.Layout, []string{flipped.URL, servers[1].URL, urlsB[0]})
	for i := 0; i < 4; i++ {
		sel, stats, err := coord.Search(spec, core.CoordOptions{})
		if err != nil {
			t.Fatalf("search %d behind a corrupting hop: %v", i, err)
		}
		if got, want := metaTranscript(sel, stats), metaTranscript(wantSel, wantStats); got != want {
			t.Fatalf("answer diverged behind a corrupting hop\nwant:\n%s\ngot:\n%s", want, got)
		}
	}
	if coord.failovers.Load()+coord.retries.Load() == 0 {
		t.Fatal("flipped records never triggered a failover or retry")
	}
}

// deepQuery finds a query that runs at least minRounds lockstep rounds
// against shard 0 (which srv must host) without finishing, so
// fast-forward tests have history to go through.
func deepQuery(t *testing.T, set *snap.ShardSetSnapshot, srv *httptest.Server, minRounds int) core.SearchSpec {
	t.Helper()
	in := set.Set.Base
	seekers, kwSets := queries(in)
	id := uint64(990000)
	for _, seeker := range seekers {
		for _, kws := range kwSets {
			groups, possible, err := core.ResolveKeywordGroups(in, kws)
			if err != nil {
				t.Fatal(err)
			}
			if !possible {
				continue
			}
			spec := core.SearchSpec{Seeker: seeker, Groups: groups, K: 5,
				Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}
			id++
			re := openSession(srv.URL, id, 0)
			if _, err := re.Begin(spec); err != nil {
				t.Fatal(err)
			}
			deep := true
			for i := 0; i < minRounds; i++ {
				info, err := re.Round()
				if err != nil {
					t.Fatal(err)
				}
				if info.Done {
					deep = false
					break
				}
			}
			re.End()
			if deep {
				return spec
			}
		}
	}
	t.Fatal("no query runs deep enough for a fast-forward test")
	return core.SearchSpec{}
}

// TestReplayFastForward is the failover acceptance property: a session
// begun fresh and fast-forwarded through k consumed rounds continues —
// round for round, bit for bit — exactly like the session that executed
// those rounds live, at every consumed-round count a failover can strike
// at. The stream cap is forced to 1 (every round its own rounds stream),
// to 3 (fast-forward stops inside a stream and reads on from it) and left
// at 64 (the history streams on the beginset).
func TestReplayFastForward(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	leakCheck(t, workers)(http.DefaultClient)
	srv := servers[0]
	spec := deepQuery(t, set, srv, 5)

	id := uint64(8800)
	open := func(batch int) *hostShardView {
		id++
		v := openSession(srv.URL, id, 0)
		v.s.streamCap = batch
		return v
	}
	for _, batch := range []int{1, 3, maxWorkerBatch} {
		for consumed := 1; consumed <= 4; consumed++ {
			primary := open(batch)
			bi1, err := primary.Begin(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < consumed; i++ {
				if _, err := primary.Round(); err != nil {
					t.Fatal(err)
				}
			}

			replica := open(batch)
			bi2, err := replica.Begin(spec)
			if err != nil {
				t.Fatal(err)
			}
			if bi2.Matched != bi1.Matched {
				t.Fatalf("replica diverges on begin: matched %d vs %d", bi2.Matched, bi1.Matched)
			}
			if err := replica.FastForward(uint32(consumed)); err != nil {
				t.Fatal(err)
			}
			if replica.consumed != uint32(consumed) || replica.s.fetched != primary.s.fetched {
				t.Fatalf("batch=%d consumed=%d: fast-forward left the replica at round %d with %d read, the live session has %d read",
					batch, consumed, replica.consumed, replica.s.fetched, primary.s.fetched)
			}

			// The stop decision belongs to the coordinator, so Done may never
			// fire when driving executors directly: compare a fixed window of
			// post-recovery rounds, then the finalize state at that point.
			for i := 0; i < 6; i++ {
				a, err := primary.Round()
				if err != nil {
					t.Fatal(err)
				}
				b, err := replica.Round()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(infoBytes(a), infoBytes(b)) {
					t.Fatalf("batch=%d consumed=%d: round %d diverged after fast-forward:\nlive:   %+v\nreplay: %+v", batch, consumed, consumed+i+1, a, b)
				}
				if a.Done {
					break
				}
			}
			fa, err := primary.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			fb, err := replica.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(infoBytes(fa), infoBytes(fb)) {
				t.Fatalf("batch=%d consumed=%d: finalize diverged after fast-forward:\nlive:   %+v\nreplay: %+v", batch, consumed, fa, fb)
			}
			primary.End()
			replica.End()
		}
	}
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
			"status": "serving", "shard": 0, "shards": []int{0}, "shard_count": 1,
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

// TestWorkerDrainAndRestart is the graceful-shutdown satellite: a
// draining worker refuses new sessions but finishes the one in flight
// (Drain blocks until End), the fleet keeps answering byte-identically
// through its replica meanwhile, and a restarted worker on the same
// address rejoins membership.
func TestWorkerDrainAndRestart(t *testing.T) {
	manifestPath, set, workers, servers := smallTopology(t)
	urlsB, stopB := startWorkers(t, manifestPath, 2, snap.LoadMmap)
	defer stopB()
	urls := []string{servers[0].URL, servers[1].URL}
	urls = append(urls, urlsB...)
	coord := newCoordinator(t, set.Set.Layout, urls)

	spec := deepQuery(t, set, servers[0], 2)
	wantSel, wantStats, err := coord.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := metaTranscript(wantSel, wantStats)

	// Open a session, then start draining: the session must pin Drain.
	// Budgeted, it fetches one round per exchange, so the Round below
	// crosses the wire.
	inflight := openSession(servers[0].URL, 7701, 0)
	inflight.s.budget = time.Hour
	if _, err := inflight.Begin(spec); err != nil {
		t.Fatal(err)
	}
	workers[0].SetDraining()
	short, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	err = workers[0].Drain(short)
	cancel()
	if err == nil {
		t.Fatal("Drain returned with a session still open")
	}
	// New sessions are refused while the in-flight one still gets rounds.
	refused := openSession(servers[0].URL, 7702, 0)
	if _, err := refused.Begin(spec); err == nil {
		t.Fatal("draining worker accepted a new search")
	}
	if _, err := inflight.Round(); err != nil {
		t.Fatalf("draining worker refused an in-flight round: %v", err)
	}
	// The fleet keeps answering through the replica.
	for i := 0; i < 3; i++ {
		sel, stats, err := coord.Search(spec, core.CoordOptions{})
		if err != nil {
			t.Fatalf("search %d while draining: %v", i, err)
		}
		if got := metaTranscript(sel, stats); got != want {
			t.Fatalf("answer diverged while worker drained\nwant:\n%s\ngot:\n%s", want, got)
		}
	}
	inflight.End()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := workers[0].Drain(drainCtx); err != nil {
		t.Fatalf("drain after End: %v", err)
	}

	// Restart on the same address: the freed port is rebound, a fresh
	// worker loads, and the coordinator's probe readmits it.
	addr := servers[0].Listener.Addr().String()
	servers[0].Close()
	var ln net.Listener
	waitUntil(t, 5*time.Second, func() bool {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return false
		}
		ln = l
		return true
	})
	w2 := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shard: 0, Mode: snap.LoadMmap})
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

	spec := deepQuery(t, set, servers[0], 2)
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
