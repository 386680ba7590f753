package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"s3"
	"s3/internal/dshard"
	"s3/internal/obs"
	"s3/internal/obs/obstest"
	"s3/internal/snap"
)

// scrapeMetrics fetches and parses the handler's /metrics exposition.
func scrapeMetrics(t testing.TB, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	return obstest.ParseExposition(t, rec.Body.String())
}

// getTraces fetches the handler's /debug/traces ring.
func getTraces(t testing.TB, h http.Handler) []obs.TraceRecord {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", rec.Code)
	}
	var body struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /debug/traces body: %v", err)
	}
	return body.Traces
}

func TestMetricsExposition(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

	postSearch(t, h, body) // cold
	postSearch(t, h, body) // warm

	samples := scrapeMetrics(t, h)
	obstest.CheckHistogram(t, samples, "s3_http_search_seconds", `outcome="cold"`)
	obstest.CheckHistogram(t, samples, "s3_http_search_seconds", `outcome="warm"`)
	if got := samples[`s3_http_search_seconds_count{outcome="cold"}`]; got != 1 {
		t.Fatalf("cold searches = %v, want 1", got)
	}
	if got := samples[`s3_http_search_seconds_count{outcome="warm"}`]; got != 1 {
		t.Fatalf("warm searches = %v, want 1", got)
	}
	// The engine-level instruments must have seen the cold search's rounds.
	obstest.CheckHistogram(t, samples, "s3_search_rounds", "")
	obstest.CheckHistogram(t, samples, "s3_search_round_seconds", "")
	if got := samples["s3_search_rounds_count"]; got < 1 {
		t.Fatalf("s3_search_rounds_count = %v, want >= 1", got)
	}
	if got := samples["s3_search_round_seconds_count"]; got < 1 {
		t.Fatalf("s3_search_round_seconds_count = %v, want >= 1", got)
	}
	if got := samples["s3_server_generation"]; got != 1 {
		t.Fatalf("s3_server_generation = %v, want 1", got)
	}
	if got := samples["s3_uptime_seconds"]; got <= 0 {
		t.Fatalf("s3_uptime_seconds = %v, want > 0", got)
	}
	if got := samples["s3_http_searches_total"]; got != 2 {
		t.Fatalf("s3_http_searches_total = %v, want 2", got)
	}
}

// spanNames collects the names of root's direct children.
func spanNames(root *obs.SpanJSON) map[string]bool {
	out := make(map[string]bool)
	if root == nil {
		return out
	}
	for _, c := range root.Children {
		out[c.Name] = true
	}
	return out
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// checkStageSpans asserts the stage spans of a traced search's tree, the
// same in every mode: no shard or exec.* span anywhere (the executor
// writes its stages straight under the root), begin carries matched, and
// each of the search's rounds is one round span carrying n and admitted
// with step, admit, bounds and select as direct children.
func checkStageSpans(t *testing.T, root *obs.SpanJSON, iterations int) {
	t.Helper()
	var walk func(sp *obs.SpanJSON)
	walk = func(sp *obs.SpanJSON) {
		if sp.Name == "shard" || strings.HasPrefix(sp.Name, "exec.") {
			t.Fatalf("trace carries a %s span: %+v", sp.Name, sp)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(root)
	rounds := 0
	for _, c := range root.Children {
		switch c.Name {
		case "begin":
			if c.Attrs["matched"] == "" {
				t.Fatalf("begin span attrs %v, want matched", c.Attrs)
			}
		case "round":
			rounds++
			if c.Attrs["n"] == "" || c.Attrs["admitted"] == "" {
				t.Fatalf("round span attrs %v, want n and admitted", c.Attrs)
			}
			kids := spanNames(c)
			for _, stage := range []string{"step", "admit", "bounds", "select"} {
				if !kids[stage] {
					t.Fatalf("round span has no %s child: %+v", stage, c)
				}
			}
		}
	}
	if rounds != iterations || rounds < 1 {
		t.Fatalf("%d round spans for a %d-round search", rounds, iterations)
	}
}

// TestTraceAndRequestID: a ?trace=1 search answers with its span tree,
// filed in the ring under the request id, for a plain instance and for a
// shard set alike.
func TestTraceAndRequestID(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	sharded, err := inst.ShardBy(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		inst s3.Queryable
	}{{"instance", inst}, {"shardset", sharded}} {
		t.Run(tc.name, func(t *testing.T) { traceAndRequestID(t, tc.inst, seeker, kw) })
	}
}

func traceAndRequestID(t *testing.T, inst s3.Queryable, seeker, kw string) {
	s := newTestServer(t, Config{Instance: inst})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

	req := httptest.NewRequest("POST", "/search?trace=1", strings.NewReader(body))
	req.Header.Set("X-Request-ID", "my-rid-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced search = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "my-rid-1" {
		t.Fatalf("X-Request-ID echoed %q, want my-rid-1", got)
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !hexID.MatchString(resp.TraceID) {
		t.Fatalf("trace_id = %q, want 16 hex chars", resp.TraceID)
	}
	if resp.Trace == nil || resp.Trace.Name != "search" {
		t.Fatalf("trace root = %+v, want a span named search", resp.Trace)
	}
	// Every mode runs the same round loop, so every tree has the same
	// stages: queue, resolve and begin, then the rounds.
	kids := spanNames(resp.Trace)
	if !kids["queue"] || !kids["resolve"] || !kids["begin"] || !kids["round"] {
		t.Fatalf("trace root children %v, want queue, resolve, begin and round spans", kids)
	}
	checkStageSpans(t, resp.Trace, resp.Iterations)

	// The trace was retained in the ring with the request id attached.
	found := false
	for _, tr := range getTraces(t, h) {
		if tr.TraceID == resp.TraceID {
			found = true
			if tr.RequestID != "my-rid-1" {
				t.Fatalf("ring record request_id = %q, want my-rid-1", tr.RequestID)
			}
			if tr.Spans == nil || tr.Spans.Name != "search" {
				t.Fatalf("ring record lost its span tree: %+v", tr.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not retained in /debug/traces", resp.TraceID)
	}

	// A repeat WITHOUT ?trace=1 carries no trace.
	if _, plain := postSearch(t, h, body); plain.TraceID != "" || plain.Trace != nil {
		t.Fatal("untraced answer carries a span tree")
	}

	// Without a client-supplied id the server generates one.
	req2 := httptest.NewRequest("POST", "/search", strings.NewReader(body))
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if got := rec2.Header().Get("X-Request-ID"); !hexID.MatchString(got) {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", got)
	}
}

// syncBuffer is a goroutine-safe io.Writer for capturing slow-log lines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowLogEmission(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	var buf syncBuffer
	// A 1ns threshold makes every search slow, so one request emits one line.
	s := newTestServer(t, Config{Instance: inst, SlowLog: obs.NewSlowLog(&buf, time.Nanosecond)})
	h := s.Handler()

	req := httptest.NewRequest("POST", "/search",
		strings.NewReader(fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)))
	req.Header.Set("X-Request-ID", "slow-rid")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log wrote %d lines, want 1: %q", len(lines), buf.String())
	}
	var slow obs.SlowRecord
	if err := json.Unmarshal([]byte(lines[0]), &slow); err != nil {
		t.Fatalf("slow log line is not JSON: %v (%q)", err, lines[0])
	}
	if slow.Seeker != seeker || slow.RequestID != "slow-rid" || slow.Outcome != "cold" {
		t.Fatalf("slow record lost fields: %+v", slow)
	}
	if slow.ElapsedMS <= 0 || len(slow.StagesMS) == 0 || !hexID.MatchString(slow.TraceID) {
		t.Fatalf("slow record missing timing breakdown: %+v", slow)
	}

	// Slow searches are retained in the trace ring even without ?trace=1.
	traces := getTraces(t, h)
	if len(traces) != 1 || traces[0].TraceID != slow.TraceID {
		t.Fatalf("slow trace not retained: %+v", traces)
	}
	if got := scrapeMetrics(t, h)["s3_slowlog_emitted_total"]; got != 1 {
		t.Fatalf("s3_slowlog_emitted_total = %v, want 1", got)
	}
}

// TestMetricsConcurrentWithReload hammers /search (some traced) and the
// observability endpoints while the instance hot-swaps underneath — the
// -race job's view of the registry, histogram, and trace-ring paths
// across instrument() re-attachment.
func TestMetricsConcurrentWithReload(t *testing.T) {
	inst := testInstance(t, 40, 160, 5)
	seeker, kw := aQuery(t, inst)
	loader := func() (s3.Queryable, error) { return testInstance(t, 40, 160, 5), nil }
	var buf syncBuffer
	s := newTestServer(t, Config{
		Instance: inst,
		Loader:   loader,
		SlowLog:  obs.NewSlowLog(&buf, time.Nanosecond),
	})
	h := s.Handler()
	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := "/search"
				if i%5 == g%5 {
					path = "/search?trace=1"
				}
				req := httptest.NewRequest("POST", path, strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("search = %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		}
	}()
	for r := 0; r < 3; r++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d = %d: %s", r, rec.Code, rec.Body.String())
		}
	}
	wg.Wait()

	samples := scrapeMetrics(t, h)
	if got := samples["s3_server_generation"]; got != 4 {
		t.Fatalf("s3_server_generation = %v, want 4 after 3 reloads", got)
	}
	if got := samples["s3_reloads_total"]; got != 3 {
		t.Fatalf("s3_reloads_total = %v, want 3", got)
	}
	// Post-reload searches still feed the engine instruments: the swapped-in
	// instance was re-instrumented before taking traffic.
	before := samples["s3_search_rounds_count"]
	req := httptest.NewRequest("POST", "/search", strings.NewReader(
		fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload search = %d", rec.Code)
	}
	if after := scrapeMetrics(t, h)["s3_search_rounds_count"]; after <= before {
		t.Fatalf("s3_search_rounds_count %v -> %v: reloaded instance is not instrumented", before, after)
	}
}

// findSpan walks the tree depth-first for the first span whose name has
// the given prefix.
func findSpan(sp *obs.SpanJSON, prefix string) *obs.SpanJSON {
	if sp == nil {
		return nil
	}
	if strings.HasPrefix(sp.Name, prefix) {
		return sp
	}
	for _, c := range sp.Children {
		if hit := findSpan(c, prefix); hit != nil {
			return hit
		}
	}
	return nil
}

// TestNoLiveReplicaIsUnavailable: a distributed search that finds no live
// worker for some shard answers 503 — the fleet, not the query, is at
// fault — and so does each of several identical requests sent at once.
func TestNoLiveReplicaIsUnavailable(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	manifest := filepath.Join(t.TempDir(), "down.set")
	if _, err := inst.WriteShardSetFiles(manifest, 1); err != nil {
		t.Fatal(err)
	}
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	di, err := s3.OpenCoordinator(manifest, []string{gone.URL}, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	h := newTestServer(t, Config{Instance: di}).Handler()

	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(body)))
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "no healthy worker for shard 0") {
				t.Errorf("search with shard 0 down = %d %s, want 503 naming the shard", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
}

// TestDistributedObservability is the end-to-end acceptance check: a
// coordinator-mode server over two worker processes answers a ?trace=1
// search with ONE span tree (the fetch from each worker, each holding the
// worker.postings span built from the worker's reported time, then the
// coordinator's own rounds), all three processes expose parseable
// /metrics, and the workers file the same span under the propagated
// trace id in their own /debug/traces rings.
func TestDistributedObservability(t *testing.T) {
	inst := testInstance(t, 60, 240, 3)
	seeker, kw := aQuery(t, inst)
	manifest := filepath.Join(t.TempDir(), "obs.set")
	if _, err := inst.WriteShardSetFiles(manifest, 2); err != nil {
		t.Fatal(err)
	}

	var workers []*httptest.Server
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		w := dshard.NewWorker(dshard.WorkerConfig{ManifestPath: manifest, Shards: []int{i}, Mode: snap.LoadCopy})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		workers = append(workers, srv)
		urls[i] = srv.URL
	}

	di, err := s3.OpenCoordinator(manifest, urls, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Instance: di})
	h := s.Handler()

	req := httptest.NewRequest("POST", "/search?trace=1", strings.NewReader(
		fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("distributed traced search = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !hexID.MatchString(resp.TraceID) || resp.Trace == nil {
		t.Fatalf("traced distributed search returned no trace: id=%q", resp.TraceID)
	}
	if resp.Iterations < 2 {
		t.Fatalf("iterations = %d, want a search of several rounds", resp.Iterations)
	}

	// The coordinator runs the entry every mode runs, so its tree has the
	// same stages as a single instance's, with the fetch beside them.
	if kids := spanNames(resp.Trace); !kids["resolve"] || !kids["fetch"] || !kids["begin"] {
		t.Fatalf("trace root children %v, want resolve, fetch and begin spans", kids)
	}
	// One tree: the fetch holds one host span per worker, each holding one
	// worker.postings span that the coordinator built from the request, the
	// events it decoded and the worker's handling time. The worker filed
	// the same span from what it decoded and encoded, so the two agree,
	// and the worker's time is inside the host's round trip.
	fetch := findSpan(resp.Trace, "fetch")
	if fetch == nil {
		t.Fatalf("no fetch span in distributed trace: %+v", resp.Trace)
	}
	hosts, events := 0, 0
	for _, c := range fetch.Children {
		if c.Name != "host" {
			continue
		}
		hosts++
		if len(c.Children) != 1 || c.Children[0].Name != "worker.postings" {
			t.Fatalf("host span holds %+v, want one worker.postings span", c.Children)
		}
		wp := c.Children[0]
		if wp.Attrs["shards"] != c.Attrs["shards"] || wp.DurUS > c.DurUS {
			t.Fatalf("worker.postings %+v under host %+v: want the host's shards and no longer a duration", wp, c)
		}
		filed := workerTrace(t, c.Attrs["worker"], resp.TraceID)
		if filed == nil {
			t.Fatalf("worker %s never filed trace %s", c.Attrs["worker"], resp.TraceID)
		}
		for _, k := range []string{"shards", "keywords", "events"} {
			if wp.Attrs[k] != filed.Attrs[k] {
				t.Fatalf("worker.postings %s = %q, the worker filed %q", k, wp.Attrs[k], filed.Attrs[k])
			}
		}
		n, err := strconv.Atoi(wp.Attrs["events"])
		if err != nil || wp.Attrs["keywords"] == "0" {
			t.Fatalf("worker.postings attrs %v", wp.Attrs)
		}
		events += n
	}
	if hosts != 2 || events == 0 {
		t.Fatalf("%d host spans under fetch with %d events, want one per worker and the query's events", hosts, events)
	}
	// Beside them, the exploration the coordinator stepped while it waited,
	// with the depth it reached when the fetch landed.
	explore := findSpan(fetch, "explore")
	if explore == nil {
		t.Fatalf("no explore span under fetch: %+v", fetch)
	}
	if d, err := strconv.Atoi(explore.Attrs["depth"]); err != nil || d < 0 {
		t.Fatalf("explore span depth %q, want a depth", explore.Attrs["depth"])
	}
	// The coordinator runs the rounds, with the stages of every mode.
	checkStageSpans(t, resp.Trace, resp.Iterations)

	// Coordinator-mode /metrics: HTTP outcome + engine rounds + wire RPC
	// instruments, all on one registry.
	samples := scrapeMetrics(t, h)
	obstest.CheckHistogram(t, samples, "s3_http_search_seconds", `outcome="cold"`)
	obstest.CheckHistogram(t, samples, "s3_search_round_seconds", "")
	obstest.CheckHistogram(t, samples, "s3_coord_rpc_seconds", `endpoint="postings"`)
	if got := samples[`s3_coord_rpc_seconds_count{endpoint="postings"}`]; got != 2 {
		t.Fatalf("coordinator postings fetches = %v, want one per worker", got)
	}
	if got := samples["s3_search_round_seconds_count"]; got < 1 {
		t.Fatalf("s3_search_round_seconds_count = %v, want >= 1", got)
	}
	if got := samples["s3_coord_searches_total"]; got < 1 {
		t.Fatalf("s3_coord_searches_total = %v, want >= 1", got)
	}
	// Wire accounting flows both ways (labels render sorted by key).
	if got := samples[`s3_coord_rpc_bytes_total{direction="sent",endpoint="postings"}`]; got <= 0 {
		t.Fatalf("sent bytes on postings endpoint = %v, want > 0", got)
	}
	if got := samples[`s3_coord_rpc_bytes_total{direction="recv",endpoint="postings"}`]; got <= 0 {
		t.Fatalf("recv bytes on postings endpoint = %v, want > 0", got)
	}

	// Worker /metrics: the postings endpoint's server side, and the same
	// trace id filed in each worker's own ring — proof the id propagated.
	answered := 0.0
	for _, srv := range workers {
		ws := scrapeURL(t, srv.URL+"/metrics")
		obstest.CheckHistogram(t, ws, "s3_shard_rpc_seconds", `endpoint="postings"`)
		if got := ws[`s3_shard_rpc_seconds_count{endpoint="postings"}`]; got < 1 {
			t.Fatalf("worker %s saw %v postings requests, want >= 1", srv.URL, got)
		}
		answered += ws["s3_worker_searches_total"]
		if workerTrace(t, srv.URL, resp.TraceID) == nil {
			t.Fatalf("worker %s never retained trace %s", srv.URL, resp.TraceID)
		}
	}
	if answered < 2 {
		t.Fatalf("worker fleet answered %v postings requests, want one per worker", answered)
	}
}

// scrapeURL fetches and parses a live /metrics endpoint.
func scrapeURL(t testing.TB, url string) map[string]float64 {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, res.StatusCode)
	}
	return obstest.ParseExposition(t, string(body))
}

// workerTrace returns the span tree the worker at base filed under
// traceID in its /debug/traces ring (nil when it filed none), checking
// that its root is the worker.postings span.
func workerTrace(t testing.TB, base, traceID string) *obs.SpanJSON {
	t.Helper()
	res, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, tr := range body.Traces {
		if tr.TraceID == traceID {
			if tr.Spans == nil || tr.Spans.Name != "worker.postings" {
				t.Fatalf("worker trace %s has wrong root: %+v", traceID, tr.Spans)
			}
			return tr.Spans
		}
	}
	return nil
}
