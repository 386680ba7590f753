package s3_test

import (
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"s3"
	"s3/internal/dshard"
	"s3/internal/snap"
)

// TestQueryErrorsAgreeAcrossModes: one bad query gets one error, whether a
// plain instance, an in-memory shard set or a distributed coordinator
// over in-process workers answers it.
func TestQueryErrorsAgreeAcrossModes(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 3)
	q := sampleQueries(t, inst, 1)[0]
	rs, err := inst.Search(q[0], []string{q[1]}, s3.WithK(1))
	if err != nil || len(rs) == 0 {
		t.Fatalf("sample query: %v, %v", rs, err)
	}
	document := rs[0].Document

	sharded, err := inst.ShardBy(3)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "errs.set")
	if _, err := inst.WriteShardSetFiles(manifest, 2); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 2)
	for s := range urls {
		w := dshard.NewWorker(dshard.WorkerConfig{ManifestPath: manifest, Shards: []int{s}, Mode: snap.LoadCopy})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		urls[s] = srv.URL
	}
	dist, err := s3.OpenCoordinator(manifest, urls, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()

	modes := []struct {
		name string
		q    s3.Queryable
	}{{"instance", inst}, {"ShardBy(3)", sharded}, {"distributed", dist}}
	for _, c := range []struct {
		name   string
		seeker string
		k      int
	}{
		{"unknown URI", "no-such-user", 5},
		{"document as seeker", document, 5},
		{"k = 0", q[0], 0},
		{"k < 0", q[0], -2},
	} {
		want := ""
		for _, m := range modes {
			_, _, err := m.q.SearchInfoed(c.seeker, []string{q[1]}, s3.WithK(c.k))
			if err == nil {
				t.Fatalf("%s: %s accepted the query", c.name, m.name)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s: %s says %q, %s says %q", c.name, m.name, err, modes[0].name, want)
			}
		}
	}
}

// TestCoordinatorShardRowsNeedNoWorker: a coordinator reports its shard
// rows from its own manifest, so over worker URLs that never answer they
// already equal the rows of the same set opened in process, tags
// included.
func TestCoordinatorShardRowsNeedNoWorker(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 3)
	manifest := filepath.Join(t.TempDir(), "rows.set")
	if _, err := inst.WriteShardSetFiles(manifest, 3); err != nil {
		t.Fatal(err)
	}
	gone := httptest.NewServer(nil)
	gone.Close()
	dist, err := s3.OpenCoordinator(manifest, []string{gone.URL}, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	local, err := s3.OpenShardSet(manifest, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Shards()
	if !slices.Equal(dist.Shards(), want) {
		t.Fatalf("coordinator rows %+v, in-process rows %+v", dist.Shards(), want)
	}
	for s, row := range want {
		if row.Tags == 0 {
			t.Fatalf("shard %d holds no tag, so the rows cannot show where tags come from: %+v", s, want)
		}
	}
}
