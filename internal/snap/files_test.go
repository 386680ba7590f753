package snap

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenersOwnTheirFiles is the lifetime contract of every opener, in
// both load modes: the result maps exactly the files it read (none when
// copied), Close unmaps them and may be called again, and an open that
// fails on its last file leaves nothing mapped either.
func TestOpenersOwnTheirFiles(t *testing.T) {
	manifestPath, in, ix := writeSetFiles(t, 40, 150, 11, 2)
	dir := filepath.Dir(manifestPath)
	snapPath := filepath.Join(dir, "i.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, in, ix); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shard := func(i int) string { return filepath.Join(dir, layoutName(manifestPath, i)) }

	type opened interface {
		MappedBytes() int64
		Close() error
	}
	for _, tc := range []struct {
		name string
		open func(LoadMode) (opened, error)
		// files are the files a mapped open keeps, in load order.
		files []string
	}{
		{"Open", func(mode LoadMode) (opened, error) { return Open(snapPath, mode) }, []string{snapPath}},
		{"OpenManifest", func(mode LoadMode) (opened, error) { return OpenManifest(manifestPath, mode) }, []string{manifestPath}},
		{"OpenShardSet", func(mode LoadMode) (opened, error) { return OpenShardSet(manifestPath, mode) }, []string{manifestPath, shard(0), shard(1)}},
		{"OpenWorkerHost", func(mode LoadMode) (opened, error) {
			return OpenWorkerHost(manifestPath, []int{0, 1}, mode, VerifyEager)
		}, []string{shard(0), shard(1)}},
	} {
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			what := fmt.Sprintf("%s mode=%v", tc.name, mode)
			var want int64
			if mode == LoadMmap {
				for _, path := range tc.files {
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					want += st.Size()
				}
			}
			o, err := tc.open(mode)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got := o.MappedBytes(); got != want {
				t.Errorf("%s: MappedBytes %d, want %d", what, got, want)
			}
			for i := 1; i <= 2; i++ {
				if err := o.Close(); err != nil {
					t.Errorf("%s: Close #%d: %v", what, i, err)
				}
			}
			assertNotMapped(t, dir)

			// Cut the last file the open reads short: it fails after the
			// files before it were loaded, and must leave none mapped.
			last := tc.files[len(tc.files)-1]
			good, err := os.ReadFile(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(last, good[:len(good)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if o, err := tc.open(mode); err == nil {
				o.Close()
				t.Errorf("%s: a truncated %s was accepted", what, filepath.Base(last))
			}
			assertNotMapped(t, dir)
			if err := os.WriteFile(last, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
