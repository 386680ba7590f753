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
	direct, err := inst.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}

	for _, body := range []string{
		fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw),
		// An old client's no_cache is an unknown field, and unknown fields
		// are ignored.
		fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5,"no_cache":true}`, seeker, kw),
	} {
		rec, resp := postSearch(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /search %s = %d: %s", body, rec.Code, rec.Body.String())
		}
		if len(resp.Results) != len(direct) {
			t.Fatalf("%s: server returned %d results, direct search %d", body, len(resp.Results), len(direct))
		}
		for i, r := range direct {
			got := resp.Results[i]
			if got.URI != r.URI || got.Document != r.Document || got.Lower != r.Lower || got.Upper != r.Upper {
				t.Errorf("%s: result %d: server %+v vs direct %+v", body, i, got, r)
			}
		}
	}
}

func TestConcurrentSearchesAreCorrect(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	s := newTestServer(t, Config{Instance: inst, Workers: 4})
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

	// Every request was an engine search of its own.
	if got := s.searches.Load(); got != 64 {
		t.Errorf("%d engine searches, want 64", got)
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
	if _, resp := postSearch(t, h, body); resp.Version != 1 {
		t.Fatalf("pre-reload search answered version %d, want 1", resp.Version)
	}

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

	// The same request now runs on the new instance (the seeker exists in
	// both) and answers as a direct search of it does.
	rec, resp := postSearch(t, h, body)
	if rec.Code != http.StatusOK || resp.Version != 2 {
		t.Fatalf("post-reload search = %d, version %d: %s", rec.Code, resp.Version, rec.Body.String())
	}
	want, err := big.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("post-reload search returned %d results, the new instance %d", len(resp.Results), len(want))
	}
	for i, r := range want {
		if got := resp.Results[i]; got.URI != r.URI || got.Lower != r.Lower || got.Upper != r.Upper {
			t.Errorf("post-reload result %d: server %+v vs new instance %+v", i, got, r)
		}
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
