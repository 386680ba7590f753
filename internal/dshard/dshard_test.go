package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/snap"
	"s3/internal/text"
)

// buildInstance assembles a dataset into a frozen instance + index.
func buildInstance(t testing.TB, spec graph.Spec) (*graph.Instance, *index.Index) {
	t.Helper()
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	return in, index.Build(in)
}

// writeSet persists a shard set for the instance and returns the
// manifest path.
func writeSet(t testing.TB, in *graph.Instance, ix *index.Index, n int) string {
	t.Helper()
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.set")
	if _, err := snap.WriteShardSetFiles(path, in, ix, parts); err != nil {
		t.Fatal(err)
	}
	return path
}

// startWorkers boots one worker HTTP server per shard and returns their
// URLs plus a shutdown func.
func startWorkers(t testing.TB, manifestPath string, n int, mode snap.LoadMode) ([]string, func()) {
	t.Helper()
	urls := make([]string, n)
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{i}, Mode: mode})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		servers = append(servers, srv)
		urls[i] = srv.URL
	}
	return urls, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// newCoordinator wires and probes a coordinator over the workers; it has
// no substrate, so its probe fetches the manifest from a worker.
func newCoordinator(t testing.TB, layout *snap.Layout, urls []string) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls,
		ShardCount: len(layout.Shards),
		SetID:      layout.SetID,
		Client:     &http.Client{Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c
}

// transcript renders an answer and its stats with exact float bits so
// distributed and in-process runs can be compared byte for byte.
func transcript(docs []graph.NID, lowers, uppers []float64, stats core.Stats) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "reason=%s iter=%d reached=%d matched=%d admitted=%d cands=%d\n",
		stats.Reason, stats.Iterations, stats.NodesReached,
		stats.ComponentsMatched, stats.ComponentsReached, stats.Candidates)
	for i, d := range docs {
		fmt.Fprintf(&b, "%d %x %x\n", d, math.Float64bits(lowers[i]), math.Float64bits(uppers[i]))
	}
	return b.String()
}

func engineTranscript(rs []core.Result, stats core.Stats) string {
	docs := make([]graph.NID, len(rs))
	lo := make([]float64, len(rs))
	hi := make([]float64, len(rs))
	for i, r := range rs {
		docs[i], lo[i], hi[i] = r.Doc, r.Lower, r.Upper
	}
	return transcript(docs, lo, hi, stats)
}

func metaTranscript(sel []core.CandMeta, stats core.Stats) string {
	docs := make([]graph.NID, len(sel))
	lo := make([]float64, len(sel))
	hi := make([]float64, len(sel))
	for i, c := range sel {
		docs[i], lo[i], hi[i] = c.Doc, c.Lower, c.Upper
	}
	return transcript(docs, lo, hi, stats)
}

// queries picks rare/mid/common keywords (single and conjunctive) plus a
// no-match query for the first few users.
func queries(in *graph.Instance) (seekers []graph.NID, kwSets [][]string) {
	kws := in.SortedKeywordsByFrequency()
	var picks []string
	for _, i := range []int{0, len(kws) / 2, len(kws) - 1} {
		if len(kws) > 0 {
			picks = append(picks, in.Dict().String(kws[i]))
		}
	}
	for _, kw := range picks {
		kwSets = append(kwSets, []string{kw})
	}
	if len(picks) >= 2 {
		kwSets = append(kwSets, []string{picks[1], picks[2]})
	}
	users := in.Users()
	for s := 0; s < len(users) && s < 3; s++ {
		seekers = append(seekers, users[s])
	}
	return seekers, kwSets
}

// datasets returns the test corpora: two generators with different
// structure (a microblog and a review graph).
func datasets(t testing.TB) map[string]graph.Spec {
	t.Helper()
	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets, to.Seed = 60, 220, 21
	tspec, _ := datagen.Twitter(to)
	vo := datagen.DefaultVodkasterOptions()
	vo.Users, vo.Movies, vo.Seed = 40, 60, 9
	vspec := datagen.Vodkaster(vo)
	return map[string]graph.Spec{"twitter": tspec, "vodkaster": vspec}
}

// TestDistributedEqualsSharded is the acceptance property: a coordinator
// over N worker processes answers byte-identically — documents, order,
// score intervals and termination stats — to one engine over the base
// instance and the merged index of the same shard set, across datasets × N ∈ {1, 2, 4}, whether it was given
// its substrate or fetched the manifest from a worker.
func TestDistributedEqualsSharded(t *testing.T) {
	for name, spec := range datasets(t) {
		in, ix := buildInstance(t, spec)
		for _, n := range []int{1, 2, 4} {
			manifestPath := writeSet(t, in, ix, n)
			set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
			if err != nil {
				t.Fatal(err)
			}
			se := core.NewEngine(set.Set.Base, set.Set.Index)

			urls, stop := startWorkers(t, manifestPath, n, snap.LoadMmap)
			given, err := NewCoordinator(CoordinatorConfig{WorkerURLs: urls, ShardCount: n, SetID: set.Set.Layout.SetID,
				Substrate: set.Set.Base, Layout: set.Set.Layout})
			if err != nil {
				t.Fatal(err)
			}
			if err := given.Probe(context.Background()); err != nil {
				t.Fatal(err)
			}
			coords := map[string]*Coordinator{"given": given, "fetched": newCoordinator(t, set.Set.Layout, urls)}

			seekers, kwSets := queries(in)
			for label, coord := range coords {
				checked := 0
				for _, seeker := range seekers {
					for _, kws := range kwSets {
						opts := core.Options{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
						rs, sstats, err := se.Search(seeker, kws, opts)
						if err != nil {
							t.Fatal(err)
						}
						groups, possible, err := core.ResolveKeywordGroups(in, kws)
						if err != nil {
							t.Fatal(err)
						}
						if !possible {
							continue
						}
						want := engineTranscript(rs, sstats)
						spec := core.SearchSpec{Seeker: seeker, Groups: groups, K: 5, Params: opts.Params, Epsilon: 1e-12}
						sel, dstats, err := coord.Search(spec, core.CoordOptions{})
						if err != nil {
							t.Fatalf("%s n=%d %s: distributed search: %v", name, n, label, err)
						}
						if got := metaTranscript(sel, dstats); got != want {
							t.Fatalf("%s n=%d %s seeker=%d kws=%v: distributed answer diverged\nsharded:\n%s\ndistributed:\n%s",
								name, n, label, seeker, kws, want, got)
						}
						checked++
					}
				}
				if checked == 0 {
					t.Fatalf("%s n=%d %s: no queries checked", name, n, label)
				}
			}
			stop()
			set.Close()
		}
	}
}

// TestSubstrateFetchChecksSet: a coordinator built without its substrate
// takes the manifest a worker serves only if it is of the coordinator's
// set. One renamed over the worker's path mid-roll is refused, and
// searches fail instead of exploring another graph.
func TestSubstrateFetchChecksSet(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 1)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	urls, stop := startWorkers(t, manifestPath, 1, snap.LoadMmap)
	defer stop()
	other, oix := buildInstance(t, datasets(t)["vodkaster"])
	if err := os.Rename(writeSet(t, other, oix, 1), manifestPath); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{WorkerURLs: urls, ShardCount: 1, SetID: m.Layout.SetID})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err == nil || !strings.Contains(err.Error(), "manifest of set") {
		t.Fatalf("probe loading another set's manifest returned %v", err)
	}
	seekers, kwSets := queries(in)
	groups, _, err := core.ResolveKeywordGroups(in, kwSets[0])
	if err != nil {
		t.Fatal(err)
	}
	spec := core.SearchSpec{Seeker: seekers[0], Groups: groups, K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
	if _, _, err := c.Search(spec, core.CoordOptions{}); err == nil || !strings.Contains(err.Error(), "no substrate") {
		t.Fatalf("a coordinator without a substrate answered: %v", err)
	}
}

// TestCoordinatorRetryAndMembership exercises replica failover: two
// replicas per shard, one of them killed mid-fleet — searches must
// retry onto the survivors, and the dead replica must be benched.
func TestCoordinatorRetryAndMembership(t *testing.T) {
	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets, to.Seed = 50, 160, 5
	spec, _ := datagen.Twitter(to)
	in, ix := buildInstance(t, spec)
	manifestPath := writeSet(t, in, ix, 2)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}

	// Two replicas per shard.
	urlsA, stopA := startWorkers(t, manifestPath, 2, snap.LoadMmap)
	urlsB, stopB := startWorkers(t, manifestPath, 2, snap.LoadMmap)
	defer stopB()
	coord := newCoordinator(t, m.Layout, append(append([]string{}, urlsA...), urlsB...))

	seekers, kwSets := queries(in)
	groups, possible, err := core.ResolveKeywordGroups(in, kwSets[0])
	if err != nil || !possible {
		t.Fatal("unusable query")
	}
	sspec := core.SearchSpec{Seeker: seekers[0], Groups: groups, K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}
	want, _, err := coord.Search(sspec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Kill replica set A. Searches keep succeeding on B (a failed fetch
	// benches its worker and re-fetches the shard from the replica).
	stopA()
	for i := 0; i < 6; i++ {
		got, _, err := coord.Search(sspec, core.CoordOptions{})
		if err != nil {
			t.Fatalf("search %d after replica kill: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("answer changed after failover: %d vs %d results", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("answer changed after failover at %d", j)
			}
		}
	}
	if coord.retries.Load() == 0 && coord.failovers.Load() == 0 {
		t.Error("no retries or failovers recorded after killing a replica set")
	}
	st := coord.Stats()
	healthy := 0
	for _, w := range st.Workers {
		if w.Healthy {
			healthy++
		}
	}
	if healthy > 2 {
		t.Errorf("%d workers healthy after killing two", healthy)
	}
}

// TestWorkerLifecycleStates covers readiness semantics: loading and
// draining workers answer /healthz with 503 and refuse new searches,
// and a probe excludes them from membership.
func TestWorkerLifecycleStates(t *testing.T) {
	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets, to.Seed = 30, 90, 2
	spec, _ := datagen.Twitter(to)
	in, ix := buildInstance(t, spec)
	manifestPath := writeSet(t, in, ix, 1)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}

	w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0}, Mode: snap.LoadCopy})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	get := func() (int, healthzBody) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hb healthzBody
		if err := jsonDecode(resp, &hb); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hb
	}
	if code, hb := get(); code != http.StatusServiceUnavailable || hb.Status != "loading" {
		t.Fatalf("loading worker: %d %q", code, hb.Status)
	}
	// A probe over a loading worker must fail coverage.
	c, err := NewCoordinator(CoordinatorConfig{WorkerURLs: []string{srv.URL}, ShardCount: 1, SetID: m.Layout.SetID})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err == nil {
		t.Error("probe accepted a loading worker")
	}

	if err := w.Load(); err != nil {
		t.Fatal(err)
	}
	if code, hb := get(); code != http.StatusOK || hb.Status != "serving" {
		t.Fatalf("serving worker: %d %q", code, hb.Status)
	}
	if err := c.Probe(context.Background()); err != nil {
		t.Errorf("probe rejected a serving worker: %v", err)
	}

	// Reload keeps serving and bumps the generation.
	resp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: HTTP %d", resp.StatusCode)
	}
	if _, hb := get(); hb.Version != 2 {
		t.Fatalf("version after reload = %d, want 2", hb.Version)
	}

	w.SetDraining()
	if code, hb := get(); code != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Fatalf("draining worker: %d %q", code, hb.Status)
	}
	if err := c.Probe(context.Background()); err == nil {
		t.Error("probe accepted a draining worker")
	}
	// New requests are refused while draining.
	if code := postPostings(t, srv.URL, postingsRequest{shards: []int{0}, kws: in.SortedKeywordsByFrequency()[:1]}); code != http.StatusServiceUnavailable {
		t.Errorf("draining worker answered a postings request with %d, want 503", code)
	}
}

// TestUnhealthyWorkerListsShards: the coordinator's /stats row of a
// worker that is not serving lists the shards its /healthz reported, so
// an operator sees which shards lost a replica, while no search is routed
// to it.
func TestUnhealthyWorkerListsShards(t *testing.T) {
	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets, to.Seed = 30, 90, 2
	spec, _ := datagen.Twitter(to)
	in, ix := buildInstance(t, spec)
	manifestPath := writeSet(t, in, ix, 2)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{1, 0}, Mode: snap.LoadCopy})
	srv := httptest.NewServer(w.Handler()) // never loaded: /healthz stays 503 loading
	defer srv.Close()
	c, err := NewCoordinator(CoordinatorConfig{WorkerURLs: []string{srv.URL}, ShardCount: 2, SetID: m.Layout.SetID})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err == nil {
		t.Fatal("probe accepted a loading worker")
	}
	st := c.Stats().Workers[0]
	if st.Healthy || !slices.Equal(st.Shards, []int{1, 0}) || st.Error != "worker is loading" {
		t.Fatalf("loading worker's row: %+v, want unhealthy, shards [1 0], worker is loading", st)
	}
}

// TestCorruptShardWorkerNeverServes: a worker over a shard file with any
// single byte flipped fails its Load with a snap error, and its /healthz
// stays 503 "loading" — it never answers a postings request from bytes
// that fail their checksum. It asks for snap.VerifyLazy, which every open
// ignores, so no setting can defer the check.
func TestCorruptShardWorkerNeverServes(t *testing.T) {
	to := datagen.DefaultTwitterOptions()
	to.Users, to.Tweets, to.Seed = 30, 90, 2
	spec, _ := datagen.Twitter(to)
	in, ix := buildInstance(t, spec)
	manifestPath := writeSet(t, in, ix, 2)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(filepath.Dir(manifestPath), m.Layout.Shards[1].Name)
	m.Close()
	orig, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	// Each flip replaces the file by rename, as a snapshot is replaced, so
	// a mapping of an earlier version is never cut short under its reader.
	replace := func(data []byte) {
		if err := os.WriteFile(shardPath+".tmp", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(shardPath+".tmp", shardPath); err != nil {
			t.Fatal(err)
		}
	}
	defer replace(orig)
	for off := 0; off < len(orig); off += 29 {
		mut := bytes.Clone(orig)
		mut[off] ^= 0x5a
		replace(mut)
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0, 1}, Mode: snap.LoadMmap, Verify: snap.VerifyLazy})
		if err := w.Load(); err == nil || !strings.HasPrefix(err.Error(), "snap:") {
			t.Fatalf("offset %d of %d: Load = %v, want a snap error", off, len(orig), err)
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hb healthzBody
		if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusServiceUnavailable || hb.Status != "loading" {
			t.Fatalf("offset %d: /healthz %d %q after a failed Load, want 503 loading", off, rec.Code, hb.Status)
		}
	}
}

// postPostings sends one postings request straight to a worker and
// returns the status it answered with.
func postPostings(t testing.TB, url string, r postingsRequest) int {
	t.Helper()
	body := appendRecord(nil, appendPostingsRequest(nil, r))
	resp, err := http.Post(url+pathPostings, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// acceptAll is the block check of codec tests that carry no substrate.
func acceptAll(int, []index.Event) error { return nil }

// TestWireRoundTrip pushes a request and a reply through the codec: the
// decode of an encode must reproduce every field, and the request decoder
// rejects what no conforming coordinator sends.
func TestWireRoundTrip(t *testing.T) {
	r := postingsRequest{traceID: 0xfeed, shards: []int{1, 3}, kws: []dict.ID{2, 9, 42}}
	got, err := decodePostingsRequest(appendPostingsRequest(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", r) {
		t.Fatalf("postings request round trip: %+v != %+v", got, r)
	}
	for name, bad := range map[string]postingsRequest{
		"a shard listed twice": {shards: []int{1, 1}, kws: r.kws},
		"no shards":            {kws: r.kws},
		"no keywords":          {shards: r.shards},
	} {
		if _, err := decodePostingsRequest(appendPostingsRequest(nil, bad)); err == nil {
			t.Errorf("postings request with %s accepted", name)
		}
	}

	// A traced reply for two shards and two keywords: each shard's blocks
	// come back as that shard's flat postings, and the worker's handling
	// time as the worker.postings span of what was asked and decoded.
	blocks := [][][]index.Event{
		{{{Frag: 4, Src: graph.NoNID, Type: index.Contains}}, nil},
		{{{Frag: 9, Src: 2, Type: index.RelatedTo}, {Frag: 11, Src: 3, Type: index.CommentsOn}}, {{Frag: 12, Src: 5, Type: index.RelatedTo}}},
	}
	e := &enc{}
	for _, shard := range blocks {
		for _, evs := range shard {
			appendEvents(e, evs)
		}
	}
	untraced := len(e.b)
	e.u64(1234)
	base := time.Now()
	parts, sp, err := decodePostingsReply(e.b, []int{1, 3}, []dict.ID{2, 9}, acceptAll, base)
	if err != nil {
		t.Fatal(err)
	}
	want := []index.Flat{
		{Kws: []dict.ID{2}, EvOff: []int64{0, 1}, Evs: blocks[0][0]},
		{Kws: []dict.ID{2, 9}, EvOff: []int64{0, 2, 3}, Evs: append(slices.Clone(blocks[1][0]), blocks[1][1]...)},
	}
	if fmt.Sprint(parts) != fmt.Sprint(want) {
		t.Fatalf("postings reply round trip: %v != %v", parts, want)
	}
	if sp == nil || sp.Name != "worker.postings" || !sp.Start.Equal(base) || sp.Dur != 1234*time.Microsecond ||
		fmt.Sprint(sp.Attrs) != "[{shards [1 3]} {keywords 2} {events 4}]" {
		t.Fatalf("duration round trip: %+v", sp)
	}
	if got, sp, err := decodePostingsReply(e.b[:untraced], []int{1, 3}, []dict.ID{2, 9}, acceptAll, base); err != nil || sp != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("untraced reply: %v, span %+v, error %v", got, sp, err)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
