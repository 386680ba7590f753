package snap

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// BenchmarkOpen is the open-time cost of the twitter instance `s3gen
// -dataset twitter -scale 1 -seed 1` writes: a snapshot mapped and copied,
// the manifest of a 4-shard set of it mapped, and a worker host of shards
// 0 and 2 of that set mapped (the shape of a two-worker deployment's
// first worker). Each open runs the checksum pass, the checks and every
// derivation — among them the network out-edges and the transition
// matrix.
func BenchmarkOpen(b *testing.B) {
	o := datagen.DefaultTwitterOptions()
	o.Seed = 1
	spec, _ := datagen.Twitter(o)
	in, ix := build(b, spec, text.Analyzer{Lang: text.None})
	dir := b.TempDir()
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		b.Fatal(err)
	}
	snapPath := filepath.Join(dir, "t.snap")
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	parts, err := graph.PartitionComponents(in, 4)
	if err != nil {
		b.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "t.set")
	if _, err := WriteShardSetFiles(manifestPath, in, ix, parts); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		open func() (interface{ Close() error }, error)
	}{
		{"snapshot/mmap", func() (interface{ Close() error }, error) { return Open(snapPath, LoadMmap) }},
		{"snapshot/copy", func() (interface{ Close() error }, error) { return Open(snapPath, LoadCopy) }},
		{"manifest/mmap", func() (interface{ Close() error }, error) { return OpenManifest(manifestPath, LoadMmap) }},
		{"workerhost/mmap", func() (interface{ Close() error }, error) {
			return OpenWorkerHost(manifestPath, []int{0, 2}, LoadMmap, VerifyEager)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := c.open()
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkWrite is what Write costs for the same instance, to io.Discard:
// the index's sections are its flat form as Build laid it out, encoded.
func BenchmarkWrite(b *testing.B) {
	o := datagen.DefaultTwitterOptions()
	o.Seed = 1
	spec, _ := datagen.Twitter(o)
	in, ix := build(b, spec, text.Analyzer{Lang: text.None})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, in, ix); err != nil {
			b.Fatal(err)
		}
	}
}
