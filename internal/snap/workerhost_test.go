package snap

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3/internal/core"
	"s3/internal/mman"
)

// TestOpenWorkerHostMultiShard is the host-grouping property test: a
// single OpenWorkerHost over several shards must answer the coordinated
// round protocol byte-identically to separate single-shard opens — and,
// in mapped mode, with measurably fewer mapped bytes, because the
// manifest substrate is mapped once instead of once per shard.
func TestOpenWorkerHostMultiShard(t *testing.T) {
	const n = 4
	hosted := []int{0, 2}
	manifestPath, in, _ := writeSetFiles(t, 60, 220, 7, n)

	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		host, err := OpenWorkerHost(manifestPath, hosted, mode, VerifyEager)
		if err != nil {
			t.Fatalf("mode=%v: host open: %v", mode, err)
		}
		defer host.Close()
		if got := host.Shards; len(got) != len(hosted) || got[0] != hosted[0] || got[1] != hosted[1] {
			t.Fatalf("mode=%v: host shards = %v, want %v", mode, got, hosted)
		}
		if len(host.Instances) != len(hosted) || len(host.Indexes) != len(hosted) {
			t.Fatalf("mode=%v: host holds %d instances / %d indexes, want %d",
				mode, len(host.Instances), len(host.Indexes), len(hosted))
		}
		if host.Instance != host.Instances[0] || host.Index != host.Indexes[0] {
			t.Fatalf("mode=%v: first-shard aliases do not point at Instances[0]/Indexes[0]", mode)
		}

		singles := make([]*WorkerSnapshot, len(hosted))
		for i, s := range hosted {
			w, err := OpenWorkerHost(manifestPath, []int{s}, mode, VerifyEager)
			if err != nil {
				t.Fatalf("mode=%v shard %d: single open: %v", mode, s, err)
			}
			defer w.Close()
			singles[i] = w
		}

		// The headline claim: hosting both shards in one process maps
		// fewer bytes than two separate workers, because the trimmed
		// manifest substrate is shared instead of duplicated.
		if mode == LoadMmap && host.Mode == LoadMmap && mman.TrimSupported() {
			var separate int64
			for _, w := range singles {
				separate += w.MappedBytes()
			}
			if hb := host.MappedBytes(); hb >= separate {
				t.Errorf("host maps %d bytes, separate workers map %d — substrate not shared", hb, separate)
			}
		}

		// Byte-identical rounds: coordinated search over the host's
		// instances vs over the single-shard opens.
		seekers, kwSets := workerQueries(in)
		for _, seeker := range seekers {
			for _, kws := range kwSets {
				groups, possible, err := core.ResolveKeywordGroups(in, kws)
				if err != nil || !possible {
					continue
				}
				spec := core.SearchSpec{Seeker: seeker, Groups: groups, K: 5, Params: defaultParams(), Epsilon: 1e-12}
				hostExecs := make([]core.ShardExecutor, len(hosted))
				singleExecs := make([]core.ShardExecutor, len(hosted))
				for i := range hosted {
					hostExecs[i] = core.NewShardExecutor(core.NewEngine(host.Instances[i], host.Indexes[i]), 0)
					singleExecs[i] = core.NewShardExecutor(core.NewEngine(singles[i].Instance, singles[i].Index), 0)
				}
				want := workerTranscript(t, singleExecs, spec)
				got := workerTranscript(t, hostExecs, spec)
				if got != want {
					t.Fatalf("mode=%v seeker=%d kws=%v: host answer diverged\nsingle:\n%s\nhost:\n%s",
						mode, seeker, kws, want, got)
				}
			}
		}
	}
}

// TestOpenWorkerHostRejectsBadShards covers the host-open argument
// contract: duplicates and out-of-range ordinals must fail fast.
func TestOpenWorkerHostRejectsBadShards(t *testing.T) {
	manifestPath, _, _ := writeSetFiles(t, 40, 150, 11, 2)
	if _, err := OpenWorkerHost(manifestPath, nil, LoadCopy, VerifyEager); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := OpenWorkerHost(manifestPath, []int{0, 0}, LoadCopy, VerifyEager); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := OpenWorkerHost(manifestPath, []int{0, 5}, LoadCopy, VerifyEager); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestOpenWorkerHostLazyVerify exercises the deferred-integrity path:
// a clean lazy open verifies to nil; a corrupted shard file fails the
// eager open up front and the lazy open at WaitVerify.
func TestOpenWorkerHostLazyVerify(t *testing.T) {
	manifestPath, _, _ := writeSetFiles(t, 40, 150, 11, 2)

	w, err := OpenWorkerHost(manifestPath, []int{0, 1}, LoadCopy, VerifyLazy)
	if err != nil {
		t.Fatalf("clean lazy open: %v", err)
	}
	if err := w.WaitVerify(); err != nil {
		t.Fatalf("clean lazy open failed verification: %v", err)
	}
	if err := w.VerifyErr(); err != nil {
		t.Fatalf("clean lazy open reports verify error: %v", err)
	}
	w.Close()

	// Corrupt shard 1's file at a payload offset the structural parse
	// does not decode eagerly: the lazy open must succeed, then report
	// the corruption from WaitVerify; the eager open must fail up front.
	shardPath := filepath.Join(filepath.Dir(manifestPath), layoutName(manifestPath, 1))
	orig, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for off := len(orig) / 2; off < len(orig)-1 && !found; off += 37 {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xff
		if err := os.WriteFile(shardPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		lw, err := OpenWorkerHost(manifestPath, []int{0, 1}, LoadCopy, VerifyLazy)
		if err != nil {
			continue // flip hit an eagerly decoded structure; try another offset
		}
		found = true
		verr := lw.WaitVerify()
		if verr == nil {
			t.Fatalf("offset %d: lazy verification missed a flipped byte", off)
		}
		if !strings.Contains(verr.Error(), "snap:") {
			t.Fatalf("offset %d: unexpected verify error: %v", off, verr)
		}
		if err := lw.VerifyErr(); err == nil {
			t.Fatalf("offset %d: VerifyErr nil after failed WaitVerify", off)
		}
		lw.Close()

		if _, err := OpenWorkerHost(manifestPath, []int{0, 1}, LoadCopy, VerifyEager); err == nil {
			t.Fatalf("offset %d: eager open accepted a corrupted shard file", off)
		}
	}
	if !found {
		t.Fatal("no flip offset survived the structural parse — cannot exercise lazy verification")
	}
	if err := os.WriteFile(shardPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}
