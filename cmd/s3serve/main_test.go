package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3"
	"s3/internal/datagen"
	"s3/internal/dshard"
	"s3/internal/server"
	"s3/internal/snap"
)

// writeSnapshotFile generates a small instance and persists it the way
// the quickstart does (gen → snapshot), returning the file path and the
// in-memory instance for direct comparison.
func writeSnapshotFile(t *testing.T) (string, *s3.Instance) {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 60, 240, 11
	spec, _ := datagen.Twitter(o)
	var specBuf bytes.Buffer
	if err := spec.Encode(&specBuf); err != nil {
		t.Fatal(err)
	}
	inst, err := s3.BuildFromSpec(&specBuf, s3.Raw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "i1.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, inst
}

// TestServeFromSnapshotEndToEnd exercises the full serving pipeline:
// snapshot on disk → loader → HTTP server on a random port → /search
// responses identical to direct Instance.Search calls.
func TestServeFromSnapshotEndToEnd(t *testing.T) {
	path, built := writeSnapshotFile(t)

	loader, err := makeLoader(path, "", s3.LoadCopy, false, "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Instance: inst, Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	checked := 0
	for u := 0; u < 60 && checked < 3; u++ {
		seeker := fmt.Sprintf("tw:u%d", u)
		if !built.HasUser(seeker) {
			continue
		}
		for _, kw := range []string{"#h1", "#h2", "#h3", "#h5"} {
			want, err := built.Search(seeker, []string{kw}, s3.WithK(5))
			if err != nil || len(want) == 0 {
				continue
			}
			body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
			resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /search = %d", resp.StatusCode)
			}
			var got struct {
				Results []struct {
					URI      string  `json:"uri"`
					Document string  `json:"document"`
					Lower    float64 `json:"lower"`
					Upper    float64 `json:"upper"`
				} `json:"results"`
				Exact bool `json:"exact"`
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(want) {
				t.Fatalf("%s/%s: served %d results, direct search %d", seeker, kw, len(got.Results), len(want))
			}
			for i, w := range want {
				g := got.Results[i]
				if g.URI != w.URI || g.Document != w.Document || g.Lower != w.Lower || g.Upper != w.Upper {
					t.Errorf("%s/%s result %d: served %+v, direct %+v", seeker, kw, i, g, w)
				}
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Fatal("no query produced results; test instance too sparse")
	}

	// Liveness and stats must reflect the snapshot-backed instance.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Instance s3.Stats `json:"instance"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instance != built.Stats() {
		t.Errorf("served stats %+v, built %+v", stats.Instance, built.Stats())
	}

	// Hot reload re-reads the snapshot file.
	resp, err = http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /reload = %d", resp.StatusCode)
	}
}

func TestMakeLoaderValidation(t *testing.T) {
	if _, err := makeLoader("", "", s3.LoadCopy, false, ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := makeLoader("a.snap", "a.set", s3.LoadCopy, false, ""); err == nil {
		t.Error("snapshot+shardset accepted")
	}
	loader, err := makeLoader(filepath.Join(t.TempDir(), "missing.snap"), "", s3.LoadCopy, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader(); err == nil {
		t.Error("missing snapshot file loaded")
	}
	loader, err = makeLoader("", filepath.Join(t.TempDir(), "missing.set"), s3.LoadCopy, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader(); err == nil {
		t.Error("missing shard set loaded")
	}
}

// TestServeFromShardSetEndToEnd exercises the sharded serving pipeline:
// s3gen-style shard-set files on disk → -shardset loader → fan-out/merge
// answers identical to the unsharded instance, with per-shard stats.
func TestServeFromShardSetEndToEnd(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 60, 240, 11
	spec, _ := datagen.Twitter(o)
	var specBuf bytes.Buffer
	if err := spec.Encode(&specBuf); err != nil {
		t.Fatal(err)
	}
	built, err := s3.BuildFromSpec(&specBuf, s3.Raw)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "i1.set")
	if _, err := built.WriteShardSetFiles(manifest, 3); err != nil {
		t.Fatal(err)
	}

	loader, err := makeLoader("", manifest, s3.LoadCopy, false, "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	si, ok := inst.(*s3.Instance)
	if !ok {
		t.Fatalf("shard-set loader returned %T", inst)
	}
	if len(si.Shards()) != 3 {
		t.Fatalf("loaded %d shards, want 3", len(si.Shards()))
	}
	srv, err := server.New(server.Config{Instance: inst, Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	checked := 0
	for u := 0; u < 60 && checked < 3; u++ {
		seeker := fmt.Sprintf("tw:u%d", u)
		if !built.HasUser(seeker) {
			continue
		}
		for _, kw := range []string{"#h1", "#h2", "#h3", "#h5"} {
			want, err := built.Search(seeker, []string{kw}, s3.WithK(5))
			if err != nil || len(want) == 0 {
				continue
			}
			body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
			resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /search = %d", resp.StatusCode)
			}
			var got struct {
				Results []struct {
					URI      string  `json:"uri"`
					Document string  `json:"document"`
					Lower    float64 `json:"lower"`
					Upper    float64 `json:"upper"`
				} `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(want) {
				t.Fatalf("%s/%s: served %d results, direct search %d", seeker, kw, len(got.Results), len(want))
			}
			for i, w := range want {
				g := got.Results[i]
				if g.URI != w.URI || g.Document != w.Document || g.Lower != w.Lower || g.Upper != w.Upper {
					t.Errorf("%s/%s result %d: sharded serve %+v, direct %+v", seeker, kw, i, g, w)
				}
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Fatal("no query produced results; test instance too sparse")
	}

	// /stats reports the shard layout, and the whole-instance stats match
	// the unsharded build.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Instance   s3.Stats `json:"instance"`
		ShardCount int      `json:"shard_count"`
		Shards     []struct {
			Documents  int `json:"documents"`
			Components int `json:"components"`
		} `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instance != built.Stats() {
		t.Errorf("served stats %+v, built %+v", stats.Instance, built.Stats())
	}
	if stats.ShardCount != 3 || len(stats.Shards) != 3 {
		t.Fatalf("stats report %d shards (%d rows), want 3", stats.ShardCount, len(stats.Shards))
	}
	docs, comps := 0, 0
	for _, sh := range stats.Shards {
		docs += sh.Documents
		comps += sh.Components
	}
	if docs != built.Stats().Documents || comps != built.Stats().Components {
		t.Errorf("shard rows sum to %d docs / %d comps, instance has %d / %d",
			docs, comps, built.Stats().Documents, built.Stats().Components)
	}

	// Hot reload re-reads the shard set.
	resp, err = http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /reload = %d", resp.StatusCode)
	}
}

// TestMmapLoaderEndToEnd exercises the -mmap serving path: the loader
// memory-maps the snapshot, reports its size, and answers searches
// identically to the in-memory instance.
func TestMmapLoaderEndToEnd(t *testing.T) {
	path, built := writeSnapshotFile(t)
	loader, err := makeLoader(path, "", s3.LoadMmap, false, "")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.MappedBytes() == 0 {
		t.Fatal("mmap loader produced an unmapped instance")
	}
	seeker, kw := "", ""
	for u := 0; u < 50 && seeker == ""; u++ {
		s := fmt.Sprintf("tw:u%d", u)
		if !built.HasUser(s) {
			continue
		}
		for _, k := range []string{"#h1", "#h2", "#h3", "#h5", "#h8"} {
			if rs, err := built.Search(s, []string{k}, s3.WithK(3)); err == nil && len(rs) > 0 {
				seeker, kw = s, k
				break
			}
		}
	}
	if seeker == "" {
		t.Fatal("no usable query")
	}
	want, err := built.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("mapped instance returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("result %d diverges: %+v vs %+v", i, want[i], got[i])
		}
	}
}

// startTestWorker boots one in-process shard worker over loopback HTTP —
// the same Worker the -shards-of mode serves.
func startTestWorker(t *testing.T, manifest string, shard int) *httptest.Server {
	t.Helper()
	w := dshard.NewWorker(dshard.WorkerConfig{
		ManifestPath: manifest,
		Shards:       []int{shard},
		Mode:         snap.LoadMmap,
	})
	if err := w.Load(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestServeDistributedEndToEnd exercises the full distributed serving
// pipeline over loopback: shard set on disk → two shard workers (mapped)
// → coordinator through the public HTTP API. Every answer must
// be byte-identical to searching the in-memory instance directly, /stats
// must expose the per-worker statuses, and the per-shard rows must be the
// ones the same set opened in process reports.
func TestServeDistributedEndToEnd(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 60, 240, 11
	spec, _ := datagen.Twitter(o)
	var specBuf bytes.Buffer
	if err := spec.Encode(&specBuf); err != nil {
		t.Fatal(err)
	}
	built, err := s3.BuildFromSpec(&specBuf, s3.Raw)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "i1.set")
	if _, err := built.WriteShardSetFiles(manifest, 2); err != nil {
		t.Fatal(err)
	}

	w0 := startTestWorker(t, manifest, 0)
	w1 := startTestWorker(t, manifest, 1)

	loader, err := makeLoader("", manifest, s3.LoadMmap, true, w0.URL+","+w1.URL)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	di, ok := inst.(*s3.DistributedInstance)
	if !ok {
		t.Fatalf("coordinator loader returned %T", inst)
	}
	if err := di.Probe(t.Context()); err != nil {
		t.Fatalf("worker fleet incomplete: %v", err)
	}
	srv, err := server.New(server.Config{Instance: inst, Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	local, err := s3.OpenShardSet(manifest, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for u := 0; u < 60; u++ {
		seeker := fmt.Sprintf("tw:u%d", u)
		if !built.HasUser(seeker) {
			continue
		}
		for _, kw := range []string{"#h1", "#h2", "#h3", "#h5"} {
			want, err := built.Search(seeker, []string{kw}, s3.WithK(5))
			if err != nil || len(want) == 0 {
				continue
			}
			body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
			resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /search = %d", resp.StatusCode)
			}
			var got struct {
				Results []struct {
					URI      string  `json:"uri"`
					Document string  `json:"document"`
					Lower    float64 `json:"lower"`
					Upper    float64 `json:"upper"`
				} `json:"results"`
				Exact bool `json:"exact"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if !got.Exact {
				t.Fatalf("distributed search for %s %q not exact", seeker, kw)
			}
			if len(got.Results) != len(want) {
				t.Fatalf("distributed search for %s %q: %d results, want %d", seeker, kw, len(got.Results), len(want))
			}
			for i, r := range got.Results {
				if r.URI != want[i].URI || r.Lower != want[i].Lower || r.Upper != want[i].Upper {
					t.Fatalf("distributed result %d for %s %q: %+v != %+v", i, seeker, kw, r, want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}

	// /stats must carry the coordinator's per-worker view.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		ShardCount  int `json:"shard_count"`
		Distributed struct {
			Role    string `json:"role"`
			Workers []struct {
				Healthy bool `json:"healthy"`
			} `json:"workers"`
		} `json:"distributed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.ShardCount != 2 || stats.Distributed.Role != "coordinator" {
		t.Fatalf("stats: shard_count=%d role=%q", stats.ShardCount, stats.Distributed.Role)
	}
	if len(stats.Distributed.Workers) != 2 || !stats.Distributed.Workers[0].Healthy || !stats.Distributed.Workers[1].Healthy {
		t.Fatalf("stats workers: %+v", stats.Distributed.Workers)
	}
	dist, inproc := di.Shards(), local.Shards()
	if len(dist) != len(inproc) {
		t.Fatalf("%d distributed shard rows, %d in process", len(dist), len(inproc))
	}
	for s := range dist {
		if dist[s] != inproc[s] {
			t.Errorf("shard %d: distributed row %+v, in-process row %+v", s, dist[s], inproc[s])
		}
	}
}
