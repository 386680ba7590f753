package dshard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/score"
)

// TestExploreReleasedOnFailedSearch: a search whose fetch fails — every
// postings request answered 500 — or whose context is cancelled
// mid-fetch gives its explorer's iterator back to the engine's pool,
// holding no recorded layer, and leaves no goroutine running (leakCheck).
// A search that runs hands the iterator to the engine instead.
func TestExploreReleasedOnFailedSearch(t *testing.T) {
	set, workers, _ := chaosTopology(t)
	const (
		serve int32 = iota
		fail
		hold
	)
	var mode, held atomic.Int32
	urls := make([]string, len(workers))
	for i, w := range workers {
		inner := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == pathPostings {
				switch mode.Load() {
				case fail:
					_, _ = io.Copy(io.Discard, req.Body)
					http.Error(rw, "injected failure", http.StatusInternalServerError)
					return
				case hold:
					_, _ = io.Copy(io.Discard, req.Body)
					held.Add(1)
					<-req.Context().Done()
					return
				}
			}
			inner.ServeHTTP(rw, req)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 30*time.Second)
	leakCheck(t)(coord.client)

	var mu sync.Mutex
	var dropped []*score.Iterator
	orig := drop
	drop = func(e *core.Engine, it *score.Iterator) {
		orig(e, it)
		mu.Lock()
		if it != nil && it.RecordedDepth() == 0 {
			dropped = append(dropped, it)
		}
		mu.Unlock()
	}
	t.Cleanup(func() { drop = orig })
	drops := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(dropped)
	}
	q := chaosQueries(t, set)[0]

	mode.Store(fail)
	if _, _, err := coord.Search(q.spec, core.CoordOptions{}); err == nil {
		t.Fatal("search succeeded with every postings request failing")
	}
	if n := drops(); n != 1 {
		t.Fatalf("failed fetch dropped %d released iterators, want 1", n)
	}

	// Reinstate the benched workers, then hold every fetch until the
	// search's context is cancelled.
	mode.Store(hold)
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.Search(q.spec, core.CoordOptions{Ctx: ctx})
		done <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return held.Load() >= 2 })
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled search returned no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled search did not return")
	}
	if n := drops(); n != 2 {
		t.Fatalf("cancelled fetch: %d released iterators dropped in all, want 2", n)
	}

	mode.Store(serve)
	sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := metaTranscript(sel, stats); got != q.want {
		t.Fatalf("search after the failures answers\n%swant\n%s", got, q.want)
	}
	if n := drops(); n != 2 {
		t.Fatalf("a search that ran dropped its iterator (%d drops)", n)
	}
}
