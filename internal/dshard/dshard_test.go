package dshard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shard: i, Mode: mode})
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

// newCoordinator wires and probes a coordinator over the workers.
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
// score intervals and termination stats — to core.ShardedEngine over the
// same shard set, across datasets × N ∈ {1, 2, 4}.
func TestDistributedEqualsSharded(t *testing.T) {
	for name, spec := range datasets(t) {
		in, ix := buildInstance(t, spec)
		for _, n := range []int{1, 2, 4} {
			manifestPath := writeSet(t, in, ix, n)
			set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*core.Engine, n)
			for i := 0; i < n; i++ {
				engines[i] = core.NewEngine(set.Set.Shards[i], set.Set.Indexes[i])
			}
			se, err := core.NewShardedEngine(engines)
			if err != nil {
				t.Fatal(err)
			}

			urls, stop := startWorkers(t, manifestPath, n, snap.LoadMmap)
			// The coordinator must equal the in-process sharded engine byte
			// for byte, and so must a second, warm pass resuming the workers'
			// cached frontiers.
			coord := newCoordinator(t, set.Set.Layout, urls)

			seekers, kwSets := queries(in)
			for pass, label := range []string{"cold", "warm"} {
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
					t.Fatalf("%s n=%d pass=%d: no queries checked", name, n, pass)
				}
			}
			stop()
			set.Close()
		}
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

	// Kill replica set A. Searches keep succeeding on B (retries bench
	// the dead workers after their first failure).
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
	// Recovery may happen as an in-executor failover (mid-search) or as a
	// whole-search retry (failure before the first round); either way the
	// coordinator must have recorded the recovery work.
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

	w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shard: 0, Mode: snap.LoadCopy})
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
	// New searches are refused while draining.
	groups, _, err := core.ResolveKeywordGroups(in, []string{in.Dict().String(in.SortedKeywordsByFrequency()[0])})
	if err != nil {
		t.Fatal(err)
	}
	re := openSession(srv.URL, 42, 0)
	if _, err := re.Begin(core.SearchSpec{Seeker: in.Users()[0], Groups: groups, K: 3, Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}); err == nil {
		t.Error("draining worker accepted a new search")
	}
}

// TestWireRoundTrip pushes representative frames through the codec: the
// decode of an encode must reproduce every field bit for bit.
func TestWireRoundTrip(t *testing.T) {
	br := beginSetRequest{
		searchID: 7,
		shards:   []int{1, 3},
		spec: core.SearchSpec{
			Seeker: 3, K: 10,
			Params:  score.Params{Gamma: 1.25, Eta: 0.8},
			Epsilon: 1e-12,
			Groups:  [][]dict.ID{{1, 2, 9}, {42}},
		},
		traceID: 0xfeed, deadlineMicros: 1_500_000, rounds: 16,
	}
	gotBR, err := decodeBeginSetRequest(encodeBeginSetRequest(br))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", gotBR) != fmt.Sprintf("%+v", br) {
		t.Fatalf("beginset request round trip: %+v != %+v", gotBR, br)
	}
	dup := br
	dup.shards = []int{1, 1}
	if _, err := decodeBeginSetRequest(encodeBeginSetRequest(dup)); err == nil {
		t.Error("beginset listing a shard twice accepted")
	}
	over := br
	over.rounds = maxWorkerBatch + 1
	if _, err := decodeBeginSetRequest(encodeBeginSetRequest(over)); err == nil {
		t.Error("beginset asking for an oversized first stream accepted")
	}

	bis := []core.BeginInfo{{Matched: 3, GroupMasses: [][]int32{{5, 0, 7}, {2}}}, {Matched: 0, GroupMasses: [][]int32{{0, 0, 0}, {0}}}}
	// A beginset stream: the begin record, then one record per round — two
	// rounds here, or none at all — then the trailer.
	flat := []core.RoundInfo{
		{N: 1, Reached: 4, Tail: 0.5, SourceTail: 1, Kept: []core.CandMeta{{Doc: 4, Lower: 0.25, Upper: 0.5}}},
		{N: 1, Reached: 4, Tail: 0.5, SourceTail: 1},
		{N: 2, Reached: 9, Tail: 0.25, SourceTail: 0.5, Done: true},
		{N: 2, Reached: 9, Tail: 0.25, SourceTail: 0.5, Done: true},
	}
	for _, rounds := range [][]core.RoundInfo{flat, nil} {
		limit := uint32(len(rounds) / len(bis)) // nothing streams after a 0-round beginset
		frame := encodeStream(len(bis), bis, rounds)
		gotBIs, rows, err := decodeStream(frame, len(bis), limit, true)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", gotBIs) != fmt.Sprintf("%+v", bis) {
			t.Fatalf("begin record round trip: %+v != %+v", gotBIs, bis)
		}
		if len(rows) != len(rounds)/len(bis) {
			t.Fatalf("beginset stream carried %d rounds, want %d", len(rows), len(rounds)/len(bis))
		}
		for i := range rounds {
			if got := rows[i/len(bis)][i%len(bis)]; fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", rounds[i]) {
				t.Fatalf("round record block %d: %+v != %+v", i, got, rounds[i])
			}
		}
		if _, _, err := decodeStream(frame, len(bis)+1, limit, true); err == nil {
			t.Error("beginset stream with the wrong shard count accepted")
		}
	}

	fr := roundRequest{searchID: 9, round: 12}
	gotFR, err := decodeRoundRequest(encodeRoundRequest(fr))
	if err != nil || gotFR != fr {
		t.Fatalf("finalize request round trip: %+v, %v (want %+v)", gotFR, err, fr)
	}

	ri := core.RoundInfo{
		Kept:      []core.CandMeta{{Doc: 4, Lower: 0.25, Upper: 0.5}, {Doc: 9, Lower: 0, Upper: 0.5}},
		Uncertain: &core.CandMeta{Doc: 11, Lower: 0.1, Upper: 0.3},
		MaxOther:  0.125, Admitted: 2, Candidates: 6, Reached: 19,
		N: 3, Tail: math.Pow(1.5, -4), SourceTail: math.Pow(1.5, -3), Done: false,
	}
	frame := infoBytes(ri)
	gotRIs, _, err := decodeHostInfosReply(frame, 1, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	gotRI := gotRIs[0]
	if gotRI.Uncertain == nil || *gotRI.Uncertain != *ri.Uncertain {
		t.Fatalf("round info uncertain round trip: %+v != %+v", gotRI.Uncertain, ri.Uncertain)
	}
	gotFlat, riFlat := gotRI, ri
	gotFlat.Uncertain, riFlat.Uncertain = nil, nil
	if fmt.Sprintf("%+v", gotFlat) != fmt.Sprintf("%+v", riFlat) {
		t.Fatalf("round info round trip: %+v != %+v", gotFlat, riFlat)
	}

	// Truncated and trailing-garbage frames are rejected.
	if _, _, err := decodeHostInfosReply(frame[:len(frame)-3], 1, time.Now()); err == nil {
		t.Error("truncated finalize reply accepted")
	}
	if _, _, err := decodeHostInfosReply(append(bytes.Clone(frame), 0), 1, time.Now()); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// infoBytes frames one RoundInfo as a one-member finalize reply — the
// exact-bits rendering the identity tests compare.
func infoBytes(info core.RoundInfo) []byte {
	return appendHostInfosReply(nil, []core.RoundInfo{info})
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
