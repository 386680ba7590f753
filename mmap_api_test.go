package s3_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3"
	"s3/internal/datagen"
	"s3/internal/doc"
	"s3/internal/graph"
)

// writeSnapshotTo persists the instance to a fresh snapshot file and
// returns its path.
func writeSnapshotTo(t testing.TB, inst *s3.Instance, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
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
	return path
}

// specQueries samples (seeker, keyword) pairs straight from a generated
// spec, so datasets with arbitrary URI schemes can be probed.
func specQueries(t testing.TB, spec graph.Spec, inst *s3.Instance, max int) [][2]string {
	t.Helper()
	var words []string
	var collect func(n *doc.Node)
	collect = func(n *doc.Node) {
		for _, w := range append(strings.Fields(n.Text), n.Keywords...) {
			if len(words) < 64 {
				words = append(words, w)
			}
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	for _, d := range spec.Docs {
		collect(d)
	}
	var out [][2]string
	for _, u := range spec.Users {
		if len(out) >= max {
			break
		}
		for _, w := range words {
			if rs, err := inst.Search(u, []string{w}, s3.WithK(5)); err == nil && len(rs) > 0 {
				out = append(out, [2]string{u, w})
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no usable queries sampled from spec")
	}
	return out
}

// battery runs every sample query in several parameterisations and fails
// on any difference from want (bit-exact scores, same order).
func battery(t *testing.T, label string, want, got s3.Queryable, queries [][2]string) {
	t.Helper()
	for _, q := range queries {
		for _, opts := range [][]s3.Option{
			{s3.WithK(5)},
			{s3.WithK(3), s3.WithGamma(4)},
			{s3.WithK(10), s3.WithEta(0.5)},
		} {
			w, err1 := want.Search(q[0], []string{q[1]}, opts...)
			g, err2 := got.Search(q[0], []string{q[1]}, opts...)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: search(%s, %s): %v / %v", label, q[0], q[1], err1, err2)
			}
			if !sameResults(w, g) {
				t.Fatalf("%s: search(%s, %s) diverges:\nwant %+v\ngot  %+v", label, q[0], q[1], w, g)
			}
		}
	}
}

// TestMmapSnapshotMatchesCopy is the core property of the zero-copy load:
// across generated datasets, a memory-mapped instance answers every query
// byte-identically (documents, order, score-interval bits) to the
// copy-loaded instance of the same file, agrees on statistics and
// extensions, and re-serialises to the identical canonical bytes.
func TestMmapSnapshotMatchesCopy(t *testing.T) {
	type dataset struct {
		name    string
		inst    *s3.Instance
		queries [][2]string
	}
	var datasets []dataset
	for _, seed := range []int64{1, 7} {
		inst := buildTestInstance(t, 70, 280, seed)
		datasets = append(datasets, dataset{
			name:    fmt.Sprintf("twitter-%d", seed),
			inst:    inst,
			queries: sampleQueries(t, inst, 6),
		})
	}
	{
		o := datagen.DefaultVodkasterOptions()
		o.Users, o.Movies = 50, 40
		spec := datagen.Vodkaster(o)
		var buf bytes.Buffer
		if err := spec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		inst, err := s3.BuildFromSpec(&buf, s3.Raw)
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, dataset{name: "vodkaster", inst: inst, queries: specQueries(t, spec, inst, 4)})
	}

	for _, d := range datasets {
		t.Run(d.name, func(t *testing.T) {
			path := writeSnapshotTo(t, d.inst, t.TempDir(), "i.snap")
			copyIn, err := s3.OpenSnapshot(path, s3.LoadCopy)
			if err != nil {
				t.Fatal(err)
			}
			mmapIn, err := s3.OpenSnapshot(path, s3.LoadMmap)
			if err != nil {
				t.Fatal(err)
			}
			defer mmapIn.Close()
			if copyIn.MappedBytes() != 0 {
				t.Errorf("copy instance reports %d mapped bytes", copyIn.MappedBytes())
			}
			if mmapIn.MappedBytes() == 0 {
				t.Error("mmap instance reports no mapped bytes")
			}
			if copyIn.Stats() != mmapIn.Stats() {
				t.Errorf("stats diverge: %+v vs %+v", copyIn.Stats(), mmapIn.Stats())
			}

			queries := d.queries
			battery(t, "mmap-vs-copy", copyIn, mmapIn, queries)
			for _, q := range queries {
				w := copyIn.Extension(q[1])
				g := mmapIn.Extension(q[1])
				if fmt.Sprint(w) != fmt.Sprint(g) {
					t.Errorf("extension(%s) diverges: %v vs %v", q[1], w, g)
				}
			}

			// The mapped instance must re-serialise to the identical
			// canonical bytes.
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := mmapIn.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig, again.Bytes()) {
				t.Errorf("mapped instance re-serialises to %d bytes, file has %d (not canonical)", again.Len(), len(orig))
			}
		})
	}
}

// TestMmapShardSetMatchesCopy extends the property across component
// sharding: for shard counts 1, 2 and 4, the mmap-loaded shard set
// answers byte-identically to the copy-loaded one and to the unsharded
// source instance.
func TestMmapShardSetMatchesCopy(t *testing.T) {
	inst := buildTestInstance(t, 70, 280, 3)
	queries := sampleQueries(t, inst, 5)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			manifest := filepath.Join(t.TempDir(), "i.set")
			if _, err := inst.WriteShardSetFiles(manifest, shards); err != nil {
				t.Fatal(err)
			}
			copySet, err := s3.OpenShardSet(manifest, s3.LoadCopy)
			if err != nil {
				t.Fatal(err)
			}
			mmapSet, err := s3.OpenShardSet(manifest, s3.LoadMmap)
			if err != nil {
				t.Fatal(err)
			}
			defer mmapSet.Close()
			if mmapSet.MappedBytes() == 0 {
				t.Error("mmap shard set reports no mapped bytes")
			}
			battery(t, "sharded-mmap-vs-copy", copySet, mmapSet, queries)
			battery(t, "sharded-mmap-vs-source", inst, mmapSet, queries)
		})
	}
}

// TestMmapSurvivesUnlink pins the operational property behind atomic
// snapshot replacement: the mapping keeps the old inode alive, so the
// file can be unlinked (or renamed over) while a mapped instance serves.
func TestMmapSurvivesUnlink(t *testing.T) {
	inst := buildTestInstance(t, 60, 240, 5)
	path := writeSnapshotTo(t, inst, t.TempDir(), "i.snap")
	queries := sampleQueries(t, inst, 3)

	mmapIn, err := s3.OpenSnapshot(path, s3.LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	battery(t, "after-unlink", inst, mmapIn, queries)
	if err := mmapIn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mmapIn.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
