package snap

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"s3/internal/datagen"
	"s3/internal/text"
)

// TestOpenLiveHeap bounds what an open of the twitter instance `s3gen
// -dataset twitter -scale 1 -seed 1` writes leaves on the Go heap: the
// derived tables (the users' out-edges, the transition matrix, the
// component partition, …) of a mapped open, whose stored tables stay in
// the mapping. A copied open also holds the file's bytes; its figure is
// logged, not bounded. Not parallel: the figure is a difference of
// whole-heap readings.
func TestOpenLiveHeap(t *testing.T) {
	path := writeTwitterSnapshot(t, 1)
	const budgetMB = 2.7
	mapped := openLiveHeapMB(t, path, LoadMmap)
	copied := openLiveHeapMB(t, path, LoadCopy)
	t.Logf("live heap after an open: mapped %.2f MB, copied %.2f MB", mapped, copied)
	if mapped > budgetMB {
		t.Errorf("a mapped open leaves %.2f MB on the heap, budget %.1f MB", mapped, budgetMB)
	}
}

// writeTwitterSnapshot writes the twitter instance of the given seed at
// the default (scale 1) size to a snapshot file and returns its path.
func writeTwitterSnapshot(t testing.TB, seed int64) string {
	o := datagen.DefaultTwitterOptions()
	o.Seed = seed
	spec, _ := datagen.Twitter(o)
	in, ix := build(t, spec, text.Analyzer{Lang: text.None})
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openLiveHeapMB opens path in the given mode and returns the growth of
// the collected heap across the open, in MB (10⁶ B): runtime.GC runs
// twice on each side, so only what the open snapshot keeps alive counts.
func openLiveHeapMB(t *testing.T, path string, mode LoadMode) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Open(path, mode)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer s.Close()
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
}
