package snap

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/mman"
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

// workerQueries picks a battery of rare/mid/common keywords (single and
// conjunctive) plus a no-match query, for the first few users.
func workerQueries(in *graph.Instance) (seekers []graph.NID, kwSets [][]string) {
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

// workerTranscript runs one coordinated search over per-shard executors
// and renders the answer with exact float bits.
func workerTranscript(t *testing.T, execs []core.ShardExecutor, spec core.SearchSpec) string {
	t.Helper()
	sel, stats, err := core.Coordinate(execs, spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "reason=%s matched=%d admitted=%d cands=%d\n",
		stats.Reason, stats.ComponentsMatched, stats.ComponentsReached, stats.Candidates)
	for _, c := range sel {
		fmt.Fprintf(&b, "%d %x %x\n", c.Doc, math.Float64bits(c.Lower), math.Float64bits(c.Upper))
	}
	return b.String()
}

// TestOpenShardWorkerSliced is the slicing property test: for every
// shard, a worker opened over the sliced substrate must answer the
// coordinated round protocol byte-identically to workers over full
// component projections — and, in mapped mode, with measurably fewer
// mapped bytes than the full manifest.
func TestOpenShardWorkerSliced(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		manifestPath, in, _ := writeSetFiles(t, 60, 220, 7, n)

		full, err := OpenShardSet(manifestPath, LoadCopy)
		if err != nil {
			t.Fatal(err)
		}
		fullManifest, err := os.ReadFile(manifestPath)
		if err != nil {
			t.Fatal(err)
		}

		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			workers := make([]*WorkerSnapshot, n)
			for i := 0; i < n; i++ {
				w, err := OpenWorkerHost(manifestPath, []int{i}, mode, VerifyEager)
				if err != nil {
					t.Fatalf("n=%d mode=%v shard %d: %v", n, mode, i, err)
				}
				defer w.Close()
				if !w.Instance.IsSliced() {
					t.Fatalf("n=%d mode=%v shard %d: instance not sliced", n, mode, i)
				}
				workers[i] = w
			}
			if mode == LoadMmap && workers[0].Mode == LoadMmap && mman.TrimSupported() {
				// The headline claim: a sliced worker maps measurably fewer
				// bytes than the unsliced open of the same shard (full
				// manifest + shard file) — at least the manifest's
				// dictionary, edge, ontology and entity sections are gone.
				shardFile, err := os.ReadFile(filepath.Join(filepath.Dir(manifestPath), layoutName(manifestPath, 0)))
				if err != nil {
					t.Fatal(err)
				}
				unsliced := int64(len(fullManifest) + len(shardFile))
				if mb := workers[0].MappedBytes(); mb >= unsliced*3/4 {
					t.Errorf("n=%d: sliced worker maps %d bytes, unsliced would map %d — not measurably lower", n, mb, unsliced)
				}
			}

			// Byte-identical rounds: coordinated search over sliced workers
			// vs over full projections, across a battery of queries.
			seekers, kwSets := workerQueries(in)
			for _, seeker := range seekers {
				for _, kws := range kwSets {
					groups, possible, err := core.ResolveKeywordGroups(in, kws)
					if err != nil || !possible {
						continue
					}
					spec := core.SearchSpec{Seeker: seeker, Groups: groups, K: 5, Params: defaultParams(), Epsilon: 1e-12}
					fullExecs := make([]core.ShardExecutor, n)
					slicedExecs := make([]core.ShardExecutor, n)
					for i := 0; i < n; i++ {
						fullExecs[i] = core.NewShardExecutor(core.NewEngine(full.Set.Shards[i], full.Set.Indexes[i]), 0)
						slicedExecs[i] = core.NewShardExecutor(core.NewEngine(workers[i].Instance, workers[i].Index), 0)
					}
					want := workerTranscript(t, fullExecs, spec)
					got := workerTranscript(t, slicedExecs, spec)
					if got != want {
						t.Fatalf("n=%d mode=%v seeker=%d kws=%v: sliced answer diverged\nfull:\n%s\nsliced:\n%s", n, mode, seeker, kws, want, got)
					}
				}
			}
		}
		full.Close()
	}
}

// TestUnslicedShardRejected assembles a shard file without the sliced
// node tables — what shard sets looked like before the sections existed —
// under a manifest that vouches for it: every open of the set must end in
// the regenerate error, with no mapping left behind.
func TestUnslicedShardRejected(t *testing.T) {
	manifestPath, in, _ := writeSetFiles(t, 40, 150, 11, 2)
	shardPath := filepath.Join(filepath.Dir(manifestPath), layoutName(manifestPath, 0))
	shard, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if same := rebuildAligned(t, shard, ShardMagic, nil); !bytes.Equal(same, shard) {
		t.Fatal("rebuildAligned does not reproduce an untouched file")
	}
	unsliced := rebuildAligned(t, shard, ShardMagic, func(id byte, p []byte) ([]byte, bool) {
		return p, bytes.IndexByte(slice3Sections, id) < 0
	})
	if err := os.WriteFile(shardPath, unsliced, 0o644); err != nil {
		t.Fatal(err)
	}
	repointManifest(t, manifestPath, in.NumComponents(), 0, unsliced)

	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		wantSetRejected(t, fmt.Sprintf("mode=%v", mode), manifestPath, []int{0}, mode)
		assertNotMapped(t, manifestPath)
	}
	// The shard that kept its tables still opens: the set is otherwise sound.
	w, err := OpenWorkerHost(manifestPath, []int{1}, LoadCopy, VerifyEager)
	if err != nil {
		t.Fatalf("sliced sibling shard: %v", err)
	}
	w.Close()
}

// TestOpenShardWorkerRejectsCorruption flips bytes through a sliced shard
// file and the manifest: every mutation must surface as an error on the
// worker open path, never a panic or a silently wrong instance.
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

	check := func(name string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: OpenWorkerHost panicked: %v", name, r)
			}
		}()
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			if w, err := OpenWorkerHost(manifestPath, []int{0}, mode, VerifyEager); err == nil {
				w.Close()
				t.Errorf("%s (mode=%v): corrupt file accepted", name, mode)
			}
		}
	}
	restore := func(path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Bit flips across the whole shard file (covers the sliced node-table
	// sections): the manifest digest must reject every one of them.
	for i := 8; i < len(shard); i += 37 {
		mut := bytes.Clone(shard)
		mut[i] ^= 0xff
		restore(shardPath, mut)
		check(fmt.Sprintf("shard byte %d", i))
	}
	restore(shardPath, shard)

	// Bit flips across the manifest. Flips inside payload sections the
	// sliced worker skips are legitimately invisible to it (it never reads
	// those bytes — their pages get trimmed away); flips in the header,
	// table or any substrate section it reads must be rejected. Either
	// way, the open must never panic.
	spans, tableEnd, err := parseAlignedTable(manifest, ManifestMagic, "manifest")
	if err != nil {
		t.Fatal(err)
	}
	read := func(pos int64) bool {
		if pos < tableEnd {
			return true
		}
		for _, sp := range spans {
			if pos >= sp.off && pos < sp.off+sp.len {
				for _, id := range manifestSubstrateSections {
					if sp.id == id {
						return true
					}
				}
				return false
			}
		}
		return false // padding gap: harmless
	}
	for i := 8; i < len(manifest); i += 101 {
		mut := bytes.Clone(manifest)
		mut[i] ^= 0xff
		restore(manifestPath, mut)
		if read(int64(i)) {
			check(fmt.Sprintf("manifest byte %d", i))
		} else {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("manifest byte %d: OpenWorkerHost panicked: %v", i, r)
					}
				}()
				if w, err := OpenWorkerHost(manifestPath, []int{0}, LoadCopy, VerifyEager); err == nil {
					w.Close()
				}
			}()
		}
	}
	restore(manifestPath, manifest)

	// Out-of-range shard ordinal.
	if w, err := OpenWorkerHost(manifestPath, []int{9}, LoadCopy, VerifyEager); err == nil {
		w.Close()
		t.Error("out-of-range shard ordinal accepted")
	}
}
