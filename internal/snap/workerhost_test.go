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

// TestOpenWorkerHostRejectsFlippedPayload: a clean open succeeds, and
// every single-byte flip across the payload half of a hosted shard file —
// including flips inside sections the open does not decode — is refused
// by OpenWorkerHost itself with a snap error, so no caller ever holds a
// corrupt shard.
func TestOpenWorkerHostRejectsFlippedPayload(t *testing.T) {
	manifestPath, _, _ := writeSetFiles(t, 40, 150, 11, 2)
	w, err := OpenWorkerHost(manifestPath, []int{0, 1}, LoadCopy, VerifyEager)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	w.Close()

	shardPath := filepath.Join(filepath.Dir(manifestPath), layoutName(manifestPath, 1))
	orig, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	defer os.WriteFile(shardPath, orig, 0o644)
	for off := len(orig) / 2; off < len(orig); off += 37 {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xff
		if err := os.WriteFile(shardPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWorkerHost(manifestPath, []int{0, 1}, LoadCopy, VerifyEager)
		if err == nil {
			w.Close()
			t.Fatalf("offset %d: a flipped shard byte was accepted", off)
		}
		if !strings.Contains(err.Error(), "snap:") {
			t.Fatalf("offset %d: unexpected error: %v", off, err)
		}
	}
}
