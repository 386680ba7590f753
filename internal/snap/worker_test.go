package snap

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"s3/internal/datagen"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/text"
)

// writeSetFiles persists a freshly generated shard set to a temp dir and
// returns the manifest path plus the built instance and index.
func writeSetFiles(t testing.TB, users, tweets int, seed int64, n int) (string, *graph.Instance, *index.Index) {
	t.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = users, tweets, seed
	spec, _ := datagen.Twitter(o)
	in, ix := build(t, spec, text.Analyzer{Lang: text.None})
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(t.TempDir(), "w.set")
	if _, err := WriteShardSetFiles(manifestPath, in, ix, parts); err != nil {
		t.Fatal(err)
	}
	return manifestPath, in, ix
}

func defaultParams() score.Params { return score.Params{Gamma: 1.5, Eta: 0.8} }

// layoutName is the conventional shard file name next to a manifest.
func layoutName(manifestPath string, i int) string {
	return fmt.Sprintf("%s.shard-%d", filepath.Base(manifestPath), i)
}

// assertWorkerPostings opens a worker host of the hosted shards and checks
// it against set, the same shard set opened whole in copy mode: for every
// hosted shard and every keyword of either side, the host's events are
// byte-for-byte the set's, and the tag counts agree. Mapped, the host
// holds exactly its shard files and not the manifest.
func assertWorkerPostings(t *testing.T, manifestPath string, hosted []int, mode LoadMode, set *ShardSet) {
	t.Helper()
	what := fmt.Sprintf("hosted=%v mode=%v", hosted, mode)
	host, err := OpenWorkerHost(manifestPath, hosted, mode, VerifyEager)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer host.Close()
	if !slices.Equal(host.Shards, hosted) || len(host.Postings) != len(hosted) || len(host.Tags) != len(hosted) {
		t.Fatalf("%s: host holds shards %v, %d postings, %d tag counts", what, host.Shards, len(host.Postings), len(host.Tags))
	}
	_, tags := graph.ShardContent(set.Base, set.Layout.Owner, len(set.Layout.Shards))
	var files int64
	for i, s := range hosted {
		ix, flat := set.Indexes[s], &host.Postings[i]
		kws := append(ix.Keywords(), flat.Kws...)
		slices.Sort(kws)
		for _, kw := range slices.Compact(kws) {
			if want, got := encEvents(ix.Events(kw)), encEvents(flat.Events(kw)); !bytes.Equal(got, want) {
				t.Fatalf("%s shard %d keyword %d: worker events %x, shard set %x", what, s, kw, got, want)
			}
		}
		if got := flat.Events(dict.ID(1 << 30)); got != nil {
			t.Fatalf("%s shard %d: unknown keyword has events %v", what, s, got)
		}
		if want := tags[s]; host.Tags[i] != want {
			t.Errorf("%s shard %d: %d tags, shard set %d", what, s, host.Tags[i], want)
		}
		st, err := os.Stat(filepath.Join(filepath.Dir(manifestPath), layoutName(manifestPath, s)))
		if err != nil {
			t.Fatal(err)
		}
		files += st.Size()
	}
	if host.Mode == LoadMmap {
		if mb := host.MappedBytes(); mb != files {
			t.Errorf("%s: host maps %d bytes, its shard files hold %d", what, mb, files)
		}
		assertNotMapped(t, manifestPath+"\n")
	}
}

// TestOpenWorkerHostPostings is the worker property test: a worker host
// of any one shard serves that shard's postings exactly as the whole
// shard set holds them, in both load modes and at every shard count.
func TestOpenWorkerHostPostings(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		manifestPath, _, _ := writeSetFiles(t, 60, 220, 7, n)
		set, err := OpenShardSet(manifestPath, LoadCopy)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			for s := 0; s < n; s++ {
				assertWorkerPostings(t, manifestPath, []int{s}, mode, set.Set)
			}
		}
		set.Close()
	}
}

// TestOpenShardWorkerRejectsCorruption flips bytes through a shard file
// and the manifest: every flip the worker open reads must surface as an
// error, and no flip may panic it.
func TestOpenShardWorkerRejectsCorruption(t *testing.T) {
	manifestPath, _, _ := writeSetFiles(t, 30, 110, 5, 2)
	dir := filepath.Dir(manifestPath)
	shardPath := filepath.Join(dir, filepath.Base(manifestPath)+".shard-0")
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}

	// open runs every worker open of shard 0 and reports whether any
	// accepted the files; a panic fails the test.
	open := func(name string) (accepted bool) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: OpenWorkerHost panicked: %v", name, r)
			}
		}()
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			if w, err := OpenWorkerHost(manifestPath, []int{0}, mode, VerifyEager); err == nil {
				w.Close()
				accepted = true
			}
		}
		return accepted
	}
	restore := func(path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Bit flips across the whole shard file: the manifest digest must
	// reject every one of them.
	for i := 8; i < len(shard); i += 37 {
		mut := bytes.Clone(shard)
		mut[i] ^= 0xff
		restore(shardPath, mut)
		if open(fmt.Sprintf("shard byte %d", i)) {
			t.Errorf("shard byte %d: corrupt file accepted", i)
		}
	}
	restore(shardPath, shard)

	// Bit flips across the manifest, plus every byte of meta and layout.
	// The worker reads the header, the table, meta and layout, so a flip
	// there must be rejected; the other sections it never reads, so a flip
	// there may pass.
	spans, tableEnd, err := parseAlignedTable(manifest, ManifestMagic, "manifest")
	if err != nil {
		t.Fatal(err)
	}
	var flips []int64
	for i := int64(8); i < int64(len(manifest)); i += 101 {
		flips = append(flips, i)
	}
	for _, sp := range spans {
		if sp.id == secMeta || sp.id == secLayout {
			for i := sp.off; i < sp.off+sp.len; i++ {
				flips = append(flips, i)
			}
		}
	}
	read := func(pos int64) bool {
		if pos < tableEnd {
			return true
		}
		for _, sp := range spans {
			if pos >= sp.off && pos < sp.off+sp.len {
				return sp.id == secMeta || sp.id == secLayout
			}
		}
		return false // padding gap: harmless
	}
	for _, i := range flips {
		mut := bytes.Clone(manifest)
		mut[i] ^= 0xff
		restore(manifestPath, mut)
		if open(fmt.Sprintf("manifest byte %d", i)) && read(i) {
			t.Errorf("manifest byte %d: corrupt file accepted", i)
		}
	}
	restore(manifestPath, manifest)

	// Out-of-range shard ordinal.
	if w, err := OpenWorkerHost(manifestPath, []int{9}, LoadCopy, VerifyEager); err == nil {
		w.Close()
		t.Error("out-of-range shard ordinal accepted")
	}
}
