package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/text"
)

func TestGenerateAllDatasets(t *testing.T) {
	for _, ds := range []string{"twitter", "vodkaster", "yelp"} {
		spec, _, err := Generate(ds, 0.05, 7)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if in.Stats().Documents == 0 || in.Stats().Users == 0 {
			t.Fatalf("%s: empty instance %+v", ds, in.Stats())
		}
	}
}

func TestGenerateTwitterReport(t *testing.T) {
	_, extra, err := Generate("twitter", 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if extra == "" {
		t.Fatal("twitter generation must report tweet statistics")
	}
}

func TestGenerateUnknownDataset(t *testing.T) {
	if _, _, err := Generate("friendster", 1, 0); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

// TestWriteShardSetFiles drives the -shards path end to end: generate,
// partition, persist, and reload through the serving loader.
func TestWriteShardSetFiles(t *testing.T) {
	spec, _, err := Generate("twitter", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "i1.set")
	if err := writeShardSet(in, index.Build(in), manifest, 3); err != nil {
		t.Fatal(err)
	}
	si, err := s3.OpenShardSet(manifest, s3.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	if len(si.Shards()) != 3 {
		t.Fatalf("loaded %d shards, want 3", len(si.Shards()))
	}
	if si.Stats() != in.Stats() {
		t.Errorf("shard set stats %+v, generated instance %+v", si.Stats(), in.Stats())
	}
}

// TestRegenerateUnderMappedInstance regenerates a snapshot and a shard set
// over paths a LoadMmap instance still holds open. The writers must
// replace the files by rename: the held instance keeps answering from its
// old inode (an in-place rewrite truncates the pages under it and the
// next search dies with SIGBUS), a fresh open sees the new instance, and
// no temporary is left behind.
func TestRegenerateUnderMappedInstance(t *testing.T) {
	build := func(seed int64) *graph.Instance {
		spec, _, err := Generate("twitter", 0.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	transcript := func(q s3.Queryable) string {
		var b strings.Builder
		for u := 0; u < 4; u++ {
			for h := 1; h <= 3; h++ {
				rs, err := q.Search(fmt.Sprintf("tw:u%d", u), []string{fmt.Sprintf("#h%d", h)}, s3.WithK(5))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintln(&b, rs)
			}
		}
		return b.String()
	}
	first, second := build(7), build(8)
	if first.Stats() == second.Stats() {
		t.Fatal("the two generated instances must differ")
	}

	for _, tc := range []struct {
		name  string
		write func(in *graph.Instance, path string) error
		open  func(path string) (s3.Queryable, error)
	}{
		{"snapshot",
			func(in *graph.Instance, path string) error { return writeSnapshot(in, index.Build(in), path) },
			func(path string) (s3.Queryable, error) { return s3.OpenSnapshot(path, s3.LoadMmap) }},
		{"shardset",
			func(in *graph.Instance, path string) error { return writeShardSet(in, index.Build(in), path, 3) },
			func(path string) (s3.Queryable, error) { return s3.OpenShardSet(path, s3.LoadMmap) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "i1")
			if err := tc.write(first, path); err != nil {
				t.Fatal(err)
			}
			held, err := tc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer held.Close()
			want := transcript(held)

			if err := tc.write(second, path); err != nil {
				t.Fatal(err)
			}
			if got := transcript(held); got != want {
				t.Error("the held instance answers differently after its path was regenerated")
			}
			fresh, err := tc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if fresh.Stats() != second.Stats() {
				t.Errorf("fresh open serves %+v, regenerated instance is %+v", fresh.Stats(), second.Stats())
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Errorf("temporaries left behind: %v", tmps)
			}
		})
	}

	// A write that cannot complete reports the error and leaves neither
	// the final path nor a temporary.
	missing := filepath.Join(t.TempDir(), "no-such-dir", "i1.snap")
	if err := writeSnapshot(first, index.Build(first), missing); err == nil {
		t.Error("writing into a missing directory reported success")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("failed write left %s behind", missing)
	}
}
