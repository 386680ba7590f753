package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"s3"
	"s3/internal/datagen"
)

// testInstance builds a small Twitter-like instance through the public
// facade (spec → BuildFromSpec), the same path cmd/s3serve uses.
func testInstance(t testing.TB, users, tweets int, seed int64) *s3.Instance {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = users, tweets, seed
	spec, _ := datagen.Twitter(o)
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	inst, err := s3.BuildFromSpec(&buf, s3.Raw)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// aQuery returns a (seeker, keyword) pair that produces results on the
// instance.
func aQuery(t testing.TB, inst *s3.Instance) (string, string) {
	t.Helper()
	q := someQueries(t, inst, 1)[0]
	return q.seeker, q.kw
}

// query is a one-keyword search that produces results on a test instance.
type query struct{ seeker, kw string }

// someQueries returns n queries of distinct seekers that produce results
// on the instance.
func someQueries(t testing.TB, inst *s3.Instance, n int) []query {
	t.Helper()
	// The generated twitter dataset names users tw:uN and uses hashtag-like
	// keywords; probe a few combinations until enough yield results.
	var qs []query
	for u := 0; u < 50 && len(qs) < n; u++ {
		seeker := fmt.Sprintf("tw:u%d", u)
		if !inst.HasUser(seeker) {
			continue
		}
		for _, kw := range []string{"#h1", "#h2", "#h3", "#h5", "#h8"} {
			if rs, err := inst.Search(seeker, []string{kw}, s3.WithK(3)); err == nil && len(rs) > 0 {
				qs = append(qs, query{seeker, kw})
				break
			}
		}
	}
	if len(qs) < n {
		t.Fatalf("test instance has %d usable queries of distinct seekers, want %d", len(qs), n)
	}
	return qs
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postSearch(t testing.TB, h http.Handler, body string) (*httptest.ResponseRecorder, searchResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/search", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp searchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad /search response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

func TestSearchMatchesDirectSearch(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()

	rec, resp := postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /search = %d: %s", rec.Code, rec.Body.String())
	}
	direct, err := inst.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(direct) {
		t.Fatalf("server returned %d results, direct search %d", len(resp.Results), len(direct))
	}
	for i, r := range direct {
		got := resp.Results[i]
		if got.URI != r.URI || got.Document != r.Document || got.Lower != r.Lower || got.Upper != r.Upper {
			t.Errorf("result %d: server %+v vs direct %+v", i, got, r)
		}
	}
	if resp.Cached {
		t.Error("first query reported cached")
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

	_, first := postSearch(t, h, body)
	rec, second := postSearch(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat search = %d", rec.Code)
	}
	if !second.Cached {
		t.Error("repeat of an exact query was not served from cache")
	}
	if len(second.Results) != len(first.Results) {
		t.Errorf("cached answer has %d results, original %d", len(second.Results), len(first.Results))
	}

	// A request with a different k is a different key.
	_, third := postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":3}`, seeker, kw))
	if third.Cached {
		t.Error("different k hit the cache")
	}

	// Any-time requests must bypass the cache entirely.
	_, budget := postSearch(t, h, fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5,"max_iterations":2}`, seeker, kw))
	if budget.Cached {
		t.Error("budgeted query hit the cache")
	}

	var stats statsResponse
	recS := httptest.NewRecorder()
	h.ServeHTTP(recS, httptest.NewRequest("GET", "/stats", nil))
	if err := json.Unmarshal(recS.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 {
		t.Errorf("stats report %d cache hits, want 1", stats.Cache.Hits)
	}
	if stats.Cache.Misses == 0 {
		t.Error("stats report no cache misses")
	}
	if stats.Searches == 0 {
		t.Error("stats report no searches")
	}
}

// Crafted seeker/keyword strings must not collide on one cache key.
func TestCacheKeyIsCollisionFree(t *testing.T) {
	a := searchRequest{Seeker: "u1\x1ffoo", Keywords: []string{"bar"}, K: 5}
	b := searchRequest{Seeker: "u1", Keywords: []string{"foo", "bar"}, K: 5}
	c := searchRequest{Seeker: "u1", Keywords: []string{"foo|bar"}, K: 5}
	d := searchRequest{Seeker: "u1|5:foo", Keywords: []string{"bar"}, K: 5}
	keys := map[string]string{}
	for name, r := range map[string]searchRequest{"a": a, "b": b, "c": c, "d": d} {
		k := r.cacheKey(1)
		if prev, dup := keys[k]; dup {
			t.Errorf("requests %s and %s share cache key %q", prev, name, k)
		}
		keys[k] = name
	}
}

func TestConcurrentSearchesAreCorrect(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	s := newTestServer(t, Config{Instance: inst, Workers: 4, CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Collect a handful of distinct working queries and their direct
	// answers.
	type q struct {
		seeker, kw string
		want       []s3.Result
	}
	var queries []q
	for u := 0; u < 60 && len(queries) < 6; u++ {
		seeker := fmt.Sprintf("tw:u%d", u)
		if !inst.HasUser(seeker) {
			continue
		}
		for _, kw := range []string{"#h1", "#h2", "#h3"} {
			rs, err := inst.Search(seeker, []string{kw}, s3.WithK(4))
			if err == nil && len(rs) > 0 {
				queries = append(queries, q{seeker, kw, rs})
				break
			}
		}
	}
	if len(queries) == 0 {
		t.Fatal("no usable queries")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qu := queries[(w+i)%len(queries)]
				body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":4}`, qu.seeker, qu.kw)
				resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var sr searchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if len(sr.Results) != len(qu.want) {
					errs <- fmt.Errorf("%s/%s: %d results, want %d", qu.seeker, qu.kw, len(sr.Results), len(qu.want))
					return
				}
				for j, r := range qu.want {
					if sr.Results[j].URI != r.URI || sr.Results[j].Lower != r.Lower {
						errs <- fmt.Errorf("%s/%s: result %d diverged", qu.seeker, qu.kw, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every request was a cache hit or an engine search of its own, and
	// the cache holds one entry per distinct query.
	cs := s.cache.stats()
	if got := s.searches.Load() + cs.Hits; got != 64 {
		t.Errorf("%d engine searches + %d cache hits = %d, want 64", s.searches.Load(), cs.Hits, got)
	}
	if cs.Size != len(queries) {
		t.Errorf("cache holds %d entries, want %d (one per distinct query)", cs.Size, len(queries))
	}
}

func TestReloadSwapsInstanceAndWarmsCache(t *testing.T) {
	small := testInstance(t, 40, 150, 3)
	big := testInstance(t, 60, 240, 4)
	loads, fail := 0, false
	s := newTestServer(t, Config{
		Instance: small,
		Loader: func() (s3.Queryable, error) {
			if fail {
				return nil, fmt.Errorf("boom")
			}
			loads++
			return big, nil
		},
	})
	h := s.Handler()
	seeker, kw := aQuery(t, small)
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
	postSearch(t, h, body)
	postSearch(t, h, body) // now cached

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d: %s", rec.Code, rec.Body.String())
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times", loads)
	}
	if s.Version() != 2 {
		t.Errorf("version = %d after reload, want 2", s.Version())
	}
	if got := s.Instance().Stats(); got != big.Stats() {
		t.Error("reload did not swap the instance")
	}

	// The hot query set was replayed against the new instance: the old
	// version's entries are gone, but the same request is warm again (the
	// seeker exists in both instances) and must hit the cache without a
	// fresh engine search under the new version.
	var reloaded struct {
		Warmed int `json:"warmed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reloaded); err != nil {
		t.Fatal(err)
	}
	if reloaded.Warmed != 1 {
		t.Errorf("reload warmed %d entries, want 1", reloaded.Warmed)
	}
	if s.warmed.Load() != 1 {
		t.Errorf("warmed counter = %d, want 1", s.warmed.Load())
	}
	if cached := s.cache.stats().Size; cached != 1 {
		t.Errorf("cache holds %d entries after warmed reload, want 1", cached)
	}
	if _, resp := postSearch(t, h, body); !resp.Cached || resp.Version != 2 {
		t.Errorf("post-reload repeat was not served from the warmed cache (cached=%v version=%d)",
			resp.Cached, resp.Version)
	}

	// A failed reload keeps the current instance serving.
	fail = true
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("failed reload returned %d", rec.Code)
	}
	if s.Version() != 2 || s.Instance() != big {
		t.Error("failed reload disturbed the serving instance")
	}
}

func TestErrorResponses(t *testing.T) {
	inst := testInstance(t, 40, 150, 3)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", "POST", "/search", "{", http.StatusBadRequest},
		{"missing seeker", "POST", "/search", `{"keywords":["x"]}`, http.StatusBadRequest},
		{"missing keywords", "POST", "/search", `{"seeker":"tw:u0"}`, http.StatusBadRequest},
		{"negative k", "POST", "/search", `{"seeker":"tw:u0","keywords":["x"],"k":-1}`, http.StatusBadRequest},
		{"unknown seeker", "POST", "/search", `{"seeker":"nobody","keywords":["x"]}`, http.StatusNotFound},
		{"oversized body", "POST", "/search", `{"seeker":"` + strings.Repeat("x", 2<<20) + `","keywords":["x"]}`, http.StatusRequestEntityTooLarge},
		{"bad gamma", "POST", "/search", `{"seeker":"tw:u0","keywords":["#h1"],"gamma":0.5}`, http.StatusBadRequest},
		{"bad eta", "POST", "/search", `{"seeker":"tw:u0","keywords":["#h1"],"eta":2}`, http.StatusBadRequest},
		{"negative budget", "POST", "/search", `{"seeker":"tw:u0","keywords":["#h1"],"budget_ms":-1}`, http.StatusBadRequest},
		{"negative max iterations", "POST", "/search", `{"seeker":"tw:u0","keywords":["#h1"],"max_iterations":-1}`, http.StatusBadRequest},
		{"reload without loader", "POST", "/reload", "", http.StatusNotImplemented},
		{"missing extension kw", "GET", "/extension", "", http.StatusBadRequest},
		{"wrong method", "GET", "/search", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
	}
}

func TestHealthzAndExtension(t *testing.T) {
	inst := testInstance(t, 40, 150, 3)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"serving"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// Readiness vs liveness: a draining server answers 503 on /healthz
	// (routers stop sending) while /livez stays 200 (don't kill the
	// process — it is finishing in-flight work).
	s.SetDraining(true)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"draining"`) {
		t.Errorf("draining healthz: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/livez", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("livez while draining: %d %s", rec.Code, rec.Body.String())
	}
	s.SetDraining(false)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/extension?keyword=class-1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("extension: %d %s", rec.Code, rec.Body.String())
	}
	var ext struct {
		Keyword   string   `json:"keyword"`
		Extension []string `json:"extension"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ext); err != nil {
		t.Fatal(err)
	}
	if ext.Keyword != "class-1" {
		t.Errorf("extension echoed keyword %q", ext.Keyword)
	}
}
