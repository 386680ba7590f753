// Tests for the resilience layer: record CRC integrity, mis-sharded
// replies, benching and reinstating workers, the jittered probe schedule,
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
	"s3/internal/obs"
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
// encoded again by appendEvents (a traced reply's handling time after
// them), a well-formed reply under a valid CRC that counts one connection
// twice.
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
		if sp != nil {
			e.u64(uint64(sp.Dur.Microseconds()))
		}
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

// TestMembershipBenchesUntilHealthyProbe: a worker is serving or benched.
// A failed fetch benches it (no pick routes to it; /stats and the
// s3_coord_worker_healthy gauge say so), a failed probe keeps it benched,
// and one healthy probe reinstates it fully: after any number of failures
// a reinstated worker takes every pick, with no trial search in between.
func TestMembershipBenchesUntilHealthyProbe(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	// Shard 0's only worker fails its postings while failing is set and
	// reports itself draining while down is set.
	var failing, down atomic.Bool
	inner := workers[0].Handler()
	w0 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		switch {
		case req.URL.Path == pathPostings && failing.Load():
			http.Error(rw, "injected failure", http.StatusInternalServerError)
		case req.URL.Path == "/healthz" && down.Load():
			rw.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(rw).Encode(map[string]any{"status": "draining"})
		default:
			inner.ServeHTTP(rw, req)
		}
	}))
	t.Cleanup(w0.Close)
	reg := obs.NewRegistry()
	c, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: []string{w0.URL, servers[1].URL},
		ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AttachRegistry(reg)
	ctx := context.Background()
	if err := c.Probe(ctx); err != nil {
		t.Fatal(err)
	}
	w := c.workers[0]
	gauge := fmt.Sprintf("s3_coord_worker_healthy{worker=%q} ", w0.URL)
	serving := func(want bool, when string) {
		t.Helper()
		var b strings.Builder
		reg.WriteTo(&b)
		value := "0"
		if want {
			value = "1"
		}
		if !strings.Contains(b.String(), gauge+value+"\n") {
			t.Fatalf("%s: no %s%s in /metrics:\n%s", when, gauge, value, b.String())
		}
		if got := c.Stats().Workers[0].Healthy; got != want {
			t.Fatalf("%s: /stats lists the worker healthy=%v, want %v", when, got, want)
		}
		picked, err := c.pickShard(0, nil)
		if want && picked != w {
			t.Fatalf("%s: pick of shard 0 = %v, %v; want the worker", when, picked, err)
		}
		if !want && !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s: pick of shard 0 = %v, %v; want ErrUnavailable", when, picked, err)
		}
	}
	serving(true, "after the first probe")

	spec := deepQuery(t, set, 1)
	failing.Store(true)
	if _, _, err := c.Search(spec, core.CoordOptions{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("search over a failing only replica returned %v, want ErrUnavailable", err)
	}
	serving(false, "after a failed fetch")
	if msg := c.Stats().Workers[0].Error; !strings.Contains(msg, "HTTP 500") {
		t.Fatalf("the benched worker's error is %q, want the failed fetch's", msg)
	}

	failing.Store(false)
	down.Store(true)
	c.probeWorker(ctx, w)
	serving(false, "after a failed probe")

	down.Store(false)
	c.probeWorker(ctx, w)
	serving(true, "after one healthy probe")
	if _, _, err := c.Search(spec, core.CoordOptions{}); err != nil {
		t.Fatalf("search after the worker was reinstated: %v", err)
	}

	// However often it failed, one healthy probe reinstates it for every
	// search at once.
	for i := 0; i < 3; i++ {
		w.bench(errors.New("boom"))
	}
	c.probeWorker(ctx, w)
	picks := make([]*workerRef, 2)
	var wg sync.WaitGroup
	for i := range picks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			picks[i], _ = c.pickShard(0, nil)
		}()
	}
	wg.Wait()
	if picks[0] != w || picks[1] != w {
		t.Fatalf("concurrent picks after three failures and a healthy probe got %v, want the worker twice", picks)
	}
}

// TestProbeJitter is the thundering-herd regression: the waits between a
// worker's probes must spread over the ±25% jitter window instead of
// landing every worker on the same tick.
func TestProbeJitter(t *testing.T) {
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		d := probeDelay()
		if d < probeInterval*3/4 || d > probeInterval*5/4 {
			t.Fatalf("probe delay %v outside %v±25%%", d, probeInterval)
		}
		seen[d.Round(time.Millisecond)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("probe delays collapsed onto %d distinct offsets over 64 draws — jitter missing", len(seen))
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

// TestMembershipRefreshDuringSearches races a loop of membership probes
// against concurrent searches (run under -race in CI): membership refresh
// must never perturb an answer or trip the race detector. The background
// probe loops run beside them and return once their context ends.
func TestMembershipRefreshDuringSearches(t *testing.T) {
	_, set, _, servers := smallTopology(t)
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls, ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
		Client: &http.Client{Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec := deepQuery(t, set, 2)
	wantSel, wantStats, err := coord.Search(spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := metaTranscript(wantSel, wantStats)

	stop := make(chan struct{})
	var loops sync.WaitGroup
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := coord.Probe(context.Background()); err != nil {
				t.Errorf("probe during searches: %v", err)
				return
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		coord.Run(ctx)
		close(ran)
	}()

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
	close(stop)
	loops.Wait()
	cancel()
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after its context ended")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
