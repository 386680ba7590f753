package snap

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenWorkerHostMultiShard is the host-grouping property test: one
// OpenWorkerHost over several shards, in any order, serves each of them
// exactly as the whole shard set holds it, and maps exactly their files.
func TestOpenWorkerHostMultiShard(t *testing.T) {
	manifestPath, _, _ := writeSetFiles(t, 60, 220, 7, 4)
	set, err := OpenShardSet(manifestPath, LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		for _, hosted := range [][]int{{0, 2}, {3, 1}, {0, 1, 2, 3}} {
			assertWorkerPostings(t, manifestPath, hosted, mode, set.Set)
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
