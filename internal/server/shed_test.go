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

// TestBadParamsRefusedBeforeAdmission: a γ or η outside its domain, or a
// negative budget or iteration cap, can never succeed, so it is refused
// with 400 before admission — even with every worker slot busy it neither
// queues nor is shed with a 429 that invites a retry, and it does not
// count as a search that failed after validation.
func TestBadParamsRefusedBeforeAdmission(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{
		Instance:     inst,
		Workers:      1,
		MaxQueue:     1,
		MaxQueueWait: 300 * time.Millisecond,
	})
	h := s.Handler()
	s.sem <- struct{}{} // the only worker slot is held
	defer func() { <-s.sem }()

	for _, bad := range []string{`"gamma":0.5`, `"gamma":1`, `"eta":1`, `"eta":-0.5`, `"budget_ms":-1`, `"max_iterations":-1`} {
		start := time.Now()
		rec, _ := postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":[%q],%s}`, seeker, kw, bad))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s with every slot busy = %d: %s", bad, rec.Code, rec.Body.String())
		}
		if d := time.Since(start); d >= s.maxQueueWait {
			t.Errorf("%s took %v: it waited for admission", bad, d)
		}
		if n := s.waiting.Load(); n != 0 {
			t.Errorf("%s: %d requests waiting, want 0", bad, n)
		}
	}
	if n := s.searchErrors.Value(); n != 0 {
		t.Errorf("search errors = %d, want 0: a refused request is not a failed search", n)
	}
}

// TestPartialBypassesCache: a ?partial=1 answer on a full-coverage
// instance is a normal exact answer, never reported degraded, and equals
// the plain request's answer.
func TestPartialBypassesCache(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

	req := httptest.NewRequest("POST", "/search?partial=1", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial search = %d: %s", rec.Code, rec.Body.String())
	}
	var presp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &presp); err != nil {
		t.Fatalf("bad partial response %q: %v", rec.Body.String(), err)
	}
	if presp.Degraded || len(presp.ShardsServed) != 0 || !presp.Exact {
		t.Errorf("full-coverage partial answer flagged degraded or inexact: %+v", presp)
	}

	_, plain := postSearch(t, h, body)
	if len(plain.Results) == 0 || len(plain.Results) != len(presp.Results) {
		t.Fatalf("partial answer has %d results, plain %d", len(presp.Results), len(plain.Results))
	}
	for i := range plain.Results {
		if presp.Results[i] != plain.Results[i] {
			t.Errorf("result %d: partial %+v vs plain %+v", i, presp.Results[i], plain.Results[i])
		}
	}
}

// TestCancelledSearchIsUnavailable: a search whose client has gone away —
// here before it starts, with a worker slot free — stops at its first
// round and answers 503, which blames the request rather than the query,
// never 400.
func TestCancelledSearchIsUnavailable(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	state := s.cur.Acquire()
	defer state.Release()
	_, herr := s.runSearch(ctx, state, &searchRequest{Seeker: seeker, Keywords: []string{kw}, K: 5, Gamma: 1.5, Eta: 0.8}, nil, false)
	if herr == nil || herr.status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled search answered %+v, want 503", herr)
	}
}
