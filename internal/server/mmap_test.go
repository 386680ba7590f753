package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"s3"
)

// writeSnapFile persists an instance to path (atomically via a temp file
// and rename, the way operators replace live snapshots).
func writeSnapFile(t testing.TB, inst *s3.Instance, path string) {
	t.Helper()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestReloadUnderMmap is the lifecycle test for hot reload over memory
// mappings: while searches are in flight on the old mapping, the snapshot
// file is atomically replaced and reloaded several times; every response
// must be bit-identical to a direct search on one of the two instance
// generations, the old file's inode is unlinked by the rename (the old
// mapping keeps serving until its last search finishes), and the whole
// dance is exercised under the race detector by the CI race job.
func TestReloadUnderMmap(t *testing.T) {
	instA := testInstance(t, 60, 240, 1)
	instB := testInstance(t, 60, 240, 2)
	seeker, kw := aQuery(t, instA)
	if !instB.HasUser(seeker) {
		t.Fatal("seeker missing from second generation")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "cur.snap")
	writeSnapFile(t, instA, path)

	loader := func() (s3.Queryable, error) {
		return s3.OpenSnapshot(path, s3.LoadMmap)
	}
	first, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	if first.MappedBytes() == 0 {
		t.Fatal("initial load is not mapped")
	}
	srv := newTestServer(t, Config{Instance: first, Loader: loader})
	h := srv.Handler()

	// The two acceptable answers, bit for bit, rendered through the same
	// HTTP pipeline the concurrent clients use.
	wantA, err := instA.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := instB.Search(seeker, []string{kw}, s3.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	matches := func(resp searchResponse, want []s3.Result) bool {
		if len(resp.Results) != len(want) {
			return false
		}
		for i, r := range resp.Results {
			if r.URI != want[i].URI || r.Document != want[i].Document ||
				r.Lower != want[i].Lower || r.Upper != want[i].Upper {
				return false
			}
		}
		return true
	}

	body := fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":5}`, seeker, kw)
	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec, resp := postSearch(t, h, body)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("search failed: %d %s", rec.Code, rec.Body.String())
					return
				}
				if !matches(resp, wantA) && !matches(resp, wantB) {
					errs <- fmt.Sprintf("response matches neither generation: %+v", resp.Results)
					return
				}
			}
		}()
	}

	// Interleave reloads with the searches: replace the snapshot (the
	// rename unlinks the mapped inode), swap generations, repeat.
	generations := []*s3.Instance{instB, instA, instB}
	for _, gen := range generations {
		writeSnapFile(t, gen, path)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload failed: %d %s", rec.Code, rec.Body.String())
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if got := srv.Version(); got != uint64(1+len(generations)) {
		t.Errorf("version = %d after %d reloads", got, len(generations))
	}
	if mb := srv.Instance().MappedBytes(); mb == 0 {
		t.Error("served instance is not mapped after reloads")
	}

	// The retired generations release their mappings once their last
	// request finishes; /stats must report the mapped accounting and load
	// time of the live generation.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("bad /stats body: %v", err)
	}
	if stats.LoadMS < 0 || stats.MappedBytes == 0 {
		t.Errorf("stats report load_ms=%d mapped_bytes=%d", stats.LoadMS, stats.MappedBytes)
	}
}
