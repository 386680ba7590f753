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

// TestProxCacheWarmPath exercises the serving warm path: a repeat of a
// request reuses the seeker's cached exploration frontier, with
// byte-identical answers.
func TestProxCacheWarmPath(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

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
	if cold.Warm || !warm.Warm || ps.Hits == 0 {
		t.Fatalf("the repeat did not resume the cold search's checkpoint (warm flags %v, %v): %+v", cold.Warm, warm.Warm, ps)
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

// TestReloadDropsCheckpoints: a reload of the same content binds the
// proximity cache to the incoming instance, which drops every checkpoint
// of the outgoing one and replays nothing, so a hot seeker's next search
// explores from scratch and publishes again for its repeat.
func TestReloadDropsCheckpoints(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{
		Instance: inst,
		Loader:   func() (s3.Queryable, error) { return testInstance(t, 60, 240, 3), nil },
	})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
	postSearch(t, h, body)
	if ps := statsProx(t, s); ps.Entries == 0 {
		t.Fatalf("the hot seeker's search published no checkpoint: %+v", ps)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d: %s", rec.Code, rec.Body.String())
	}
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if _, ok := reply["warmed"]; ok {
		t.Errorf("reload reply reports warmed: %s", rec.Body.String())
	}
	if ps := statsProx(t, s); ps.Entries != 0 {
		t.Errorf("checkpoints after reload = %d, want 0: %+v", ps.Entries, ps)
	}
	if _, resp := postSearch(t, h, body); resp.Warm {
		t.Error("the hot seeker's first search after the reload resumed a checkpoint")
	}
	if _, resp := postSearch(t, h, body); !resp.Warm {
		t.Errorf("the hot seeker's repeat after the reload ran cold: %+v", statsProx(t, s))
	}
}
