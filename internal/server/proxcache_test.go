package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"s3"
)

// statsProx fetches /stats and returns the prox_cache block.
func statsProx(t *testing.T, s *Server) proxCacheStats {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var body struct {
		ProxCache proxCacheStats `json:"prox_cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /stats body %q: %v", rec.Body.String(), err)
	}
	return body.ProxCache
}

// TestProxCacheWarmPath exercises the serving warm path under the result
// cache: a request that bypasses the result cache still reuses the
// seeker's cached exploration frontier, with byte-identical answers.
func TestProxCacheWarmPath(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	seeker, kw := aQuery(t, inst)
	// no_cache skips the result cache, so every request reaches the
	// engine — the second one over a warm proximity frontier.
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5,"no_cache":true}`, seeker, kw)

	_, cold := postSearch(t, h, body)
	ps := statsProx(t, s)
	if !ps.Enabled {
		t.Fatal("prox cache not enabled by default")
	}
	if ps.Stores == 0 || ps.Entries == 0 {
		t.Fatalf("cold search published no checkpoint: %+v", ps)
	}

	_, warm := postSearch(t, h, body)
	ps = statsProx(t, s)
	if ps.Hits == 0 {
		t.Fatalf("warm search did not hit the prox cache: %+v", ps)
	}
	if len(cold.Results) == 0 || len(cold.Results) != len(warm.Results) {
		t.Fatalf("result shape diverged: %d vs %d", len(cold.Results), len(warm.Results))
	}
	for i := range cold.Results {
		if cold.Results[i] != warm.Results[i] {
			t.Fatalf("warm result %d diverged: %+v vs %+v", i, cold.Results[i], warm.Results[i])
		}
	}
	if cold.Iterations != warm.Iterations {
		t.Fatalf("iterations diverged: %d vs %d", cold.Iterations, warm.Iterations)
	}
}

// TestProxCacheDisabled: a negative budget turns the warm path off.
func TestProxCacheDisabled(t *testing.T) {
	inst := testInstance(t, 40, 150, 3)
	s := newTestServer(t, Config{Instance: inst, ProxCacheBytes: -1})
	h := s.Handler()
	seeker, kw := aQuery(t, inst)
	postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":3}`, seeker, kw))
	if ps := statsProx(t, s); ps.Enabled || ps.Stores != 0 {
		t.Fatalf("disabled prox cache reported activity: %+v", ps)
	}
}

// TestReloadReseedsProximity: a reload drops the stale checkpoints and
// the result-cache replay re-publishes the frontiers of the queries it
// re-executes — and only those: a hot query that matches nothing explores
// nothing, before the reload or after it.
func TestReloadReseedsProximity(t *testing.T) {
	small := testInstance(t, 40, 150, 3)
	big := testInstance(t, 60, 240, 4)
	s := newTestServer(t, Config{
		Instance: small,
		Loader:   func() (s3.Queryable, error) { return big, nil },
	})
	h := s.Handler()
	seeker, kw := aQuery(t, small)
	postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw))
	// A second hot seeker whose (exact, cacheable) query matches nothing.
	other := otherSeeker(t, small, big, seeker)
	postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":["zz-no-such-keyword"],"k":5}`, other))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	var reloaded struct {
		Warmed int `json:"warmed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reloaded); err != nil {
		t.Fatal(err)
	}
	if reloaded.Warmed != 2 {
		t.Errorf("reload replayed %d result-cache entries, want 2", reloaded.Warmed)
	}
	// Everything cached now belongs to the new instance: the replayed
	// matching query's frontier, nothing stale.
	if ps := statsProx(t, s); ps.Entries != 1 {
		t.Errorf("checkpoints after reload = %d, want 1: %+v", ps.Entries, ps)
	}
}

// TestReloadKeepsHottestCheckpoint: the replay re-runs the hot queries
// oldest first, so the most recent seeker's frontier is published last
// and a budget of a few checkpoints keeps it; nothing after the replay
// may evict it. A search of that seeker the result cache cannot answer
// (another k) then resumes the checkpoint.
func TestReloadKeepsHottestCheckpoint(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	hot := someQueries(t, inst, 4)
	last := hot[len(hot)-1]
	search := func(q query, k int, noCache bool) string {
		return fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":%d,"no_cache":%v}`, q.seeker, q.kw, k, noCache)
	}

	// One checkpoint's size: the last seeker's search, alone in a cache.
	sizer := newTestServer(t, Config{Instance: inst})
	postSearch(t, sizer.Handler(), search(last, 5, false))
	one := statsProx(t, sizer).Bytes
	if one == 0 {
		t.Fatal("the sizing search published no checkpoint")
	}

	s := newTestServer(t, Config{
		Instance:       inst,
		ProxCacheBytes: one * 5 / 2,
		Loader:         func() (s3.Queryable, error) { return inst, nil },
	})
	h := s.Handler()
	for _, q := range hot {
		if rec, _ := postSearch(t, h, search(q, 5, false)); rec.Code != http.StatusOK {
			t.Fatalf("search %v = %d: %s", q, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d: %s", rec.Code, rec.Body.String())
	}
	rec, resp := postSearch(t, h, search(last, 3, true))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload search = %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Warm {
		t.Errorf("the hottest seeker's search ran cold after the reload: %+v", statsProx(t, s))
	}
}

// otherSeeker picks a user present in both instances, different from avoid.
func otherSeeker(t *testing.T, a, b *s3.Instance, avoid string) string {
	t.Helper()
	for u := 0; u < 50; u++ {
		s := fmt.Sprintf("tw:u%d", u)
		if s != avoid && a.HasUser(s) && b.HasUser(s) {
			return s
		}
	}
	t.Fatal("no second seeker available")
	return ""
}
