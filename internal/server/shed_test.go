package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedding exercises the bounded admission queue: with every
// worker slot busy, an arrival queues only while fewer than MaxQueue
// others wait and only for MaxQueueWait — past either bound it is shed
// with 429 and a Retry-After hint; a client that disconnects while
// queued gets 503 without burning a slot.
func TestAdmissionShedding(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{
		Instance:     inst,
		Workers:      1,
		MaxQueue:     1,
		MaxQueueWait: 300 * time.Millisecond,
	})
	h := s.Handler()
	body := func(k int) string {
		return fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":%d}`, seeker, kw, k)
	}

	// Occupy the only worker slot so every search must queue.
	s.sem <- struct{}{}

	// First arrival queues, then times out after MaxQueueWait.
	type res struct{ rec *httptest.ResponseRecorder }
	timedOut := make(chan res, 1)
	go func() {
		rec, _ := postSearch(t, h, body(2))
		timedOut <- res{rec}
	}()
	waitFor(t, 2*time.Second, func() bool { return s.waiting.Load() == 1 }, "first request to queue")

	// Second arrival sees a full queue and is shed immediately.
	rec, _ := postSearch(t, h, body(3))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request past the queue bound = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "queue full") {
		t.Errorf("queue-full shed body: %s", rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("queue-full Retry-After = %q, want 1", got)
	}
	if got := s.shed[shedQueueFull].Value(); got != 1 {
		t.Errorf("shed[%s] = %d, want 1", shedQueueFull, got)
	}

	// The queued request eventually gives up with the timeout reason.
	select {
	case r := <-timedOut:
		if r.rec.Code != http.StatusTooManyRequests {
			t.Fatalf("queued request = %d: %s", r.rec.Code, r.rec.Body.String())
		}
		if !strings.Contains(r.rec.Body.String(), "timed out") {
			t.Errorf("queue-timeout shed body: %s", r.rec.Body.String())
		}
		if got := r.rec.Header().Get("Retry-After"); got != "1" {
			t.Errorf("queue-timeout Retry-After = %q, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never timed out")
	}
	if got := s.shed[shedTimeout].Value(); got != 1 {
		t.Errorf("shed[%s] = %d, want 1", shedTimeout, got)
	}

	// A client that goes away while queued gets 503, not 429: nothing was
	// shed, the caller just left.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/search", strings.NewReader(body(4))).WithContext(ctx)
		rc := httptest.NewRecorder()
		h.ServeHTTP(rc, req)
		cancelled <- rc
	}()
	waitFor(t, 2*time.Second, func() bool { return s.waiting.Load() == 1 }, "cancellable request to queue")
	cancel()
	select {
	case rc := <-cancelled:
		if rc.Code != http.StatusServiceUnavailable || !strings.Contains(rc.Body.String(), "cancelled while queued") {
			t.Errorf("cancelled-while-queued = %d: %s", rc.Code, rc.Body.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never returned")
	}

	// Freeing the slot restores normal service.
	<-s.sem
	rec, resp := postSearch(t, h, body(5))
	if rec.Code != http.StatusOK {
		t.Fatalf("search after slot release = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Results) == 0 {
		t.Error("recovered search returned no results")
	}
}

// TestPartialBypassesCache: ?partial=1 answers are coverage-dependent,
// so they must neither be served from the result cache nor populate it,
// and a full-coverage instance never reports them degraded.
func TestPartialBypassesCache(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

	postPartial := func() (*httptest.ResponseRecorder, searchResponse) {
		req := httptest.NewRequest("POST", "/search?partial=1", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp searchResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("bad partial response %q: %v", rec.Body.String(), err)
			}
		}
		return rec, resp
	}

	// A partial answer on full coverage is a normal exact answer.
	rec, presp := postPartial()
	if rec.Code != http.StatusOK {
		t.Fatalf("partial search = %d: %s", rec.Code, rec.Body.String())
	}
	if presp.Degraded || len(presp.ShardsServed) != 0 {
		t.Errorf("full-coverage partial answer flagged degraded: %+v", presp)
	}
	if presp.Cached {
		t.Error("first partial request reported cached")
	}

	// It did not populate the cache: the same plain request still misses.
	_, plain := postSearch(t, h, body)
	if plain.Cached {
		t.Error("partial answer leaked into the result cache")
	}

	// Now the plain answer is cached — but a partial repeat must bypass it.
	_, repeat := postSearch(t, h, body)
	if !repeat.Cached {
		t.Fatal("plain repeat was not cached (fixture assumption broken)")
	}
	if _, p2 := postPartial(); p2.Cached {
		t.Error("partial request was served from the cache")
	}
}

// TestCancelledSearchIsUnavailable: a search whose client has gone away —
// here before it starts, with a worker slot free — stops at its first
// round and answers 503, the status on which coalesced followers run a
// search of their own, never 400.
func TestCancelledSearchIsUnavailable(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	state := s.cur.Acquire()
	defer state.Release()
	_, herr := s.runSearch(ctx, state, &searchRequest{Seeker: seeker, Keywords: []string{kw}, K: 5}, nil, false)
	if herr == nil || herr.status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled search answered %+v, want 503", herr)
	}
}
