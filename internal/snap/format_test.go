package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// rebuildAligned re-assembles an aligned file from its own sections,
// passing each through edit (nil keeps everything), which returns the
// payload to write and whether to keep the section at all.
func rebuildAligned(t testing.TB, data []byte, magic string, edit func(id byte, payload []byte) ([]byte, bool)) []byte {
	t.Helper()
	f, err := readAligned(data, magic, "file under test", nil)
	if err != nil {
		t.Fatal(err)
	}
	var secs []asec
	for _, sp := range f.spans {
		payload, keep := f.payloads[sp.id], true
		if edit != nil {
			payload, keep = edit(sp.id, payload)
		}
		if keep {
			secs = append(secs, asec{id: sp.id, raw: sp.id >= sec3DictArena, data: payload})
		}
	}
	var buf bytes.Buffer
	if err := writeAligned(&buf, magic, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// repointManifest rewrites the manifest file so that its layout vouches
// for shard, the new bytes of shard file i, after passing shard i's
// layout entry through edits.
func repointManifest(t testing.TB, manifestPath string, i int, shard []byte, edits ...func(*ShardDesc)) {
	t.Helper()
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	out := rebuildAligned(t, manifest, ManifestMagic, func(id byte, p []byte) ([]byte, bool) {
		if id != secLayout {
			return p, true
		}
		layout, err := decodeLayout(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, edit := range edits {
			edit(&layout.Shards[i])
		}
		layout.Shards[i].Sum = uint64(crc32.Checksum(shard, castagnoli))
		return encodeLayout(layout), true
	})
	if err := os.WriteFile(manifestPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantRegenerate fails unless an open ended in the regenerate error;
// whatever it opened instead (nil for a stream read) is closed.
func wantRegenerate(t testing.TB, what string, opened interface{ Close() error }, err error) {
	t.Helper()
	if err == nil {
		if opened != nil {
			opened.Close()
		}
		t.Errorf("%s: accepted", what)
	} else if !strings.Contains(err.Error(), regenerate) {
		t.Errorf("%s: rejected with %q, want the %q error", what, err, regenerate)
	}
}

// wantSetRejected fails unless every open of the shard set — all shards
// in one process, or a worker host of hosted — ends in the regenerate
// error.
func wantSetRejected(t testing.TB, what, manifestPath string, hosted []int, mode LoadMode) {
	t.Helper()
	set, err := OpenShardSet(manifestPath, mode)
	wantRegenerate(t, what+": OpenShardSet", set, err)
	w, err := OpenWorkerHost(manifestPath, hosted, mode, VerifyEager)
	wantRegenerate(t, what+": OpenWorkerHost", w, err)
}

// assertNotMapped fails if the process still maps a file whose path
// contains path (observable on Linux only; elsewhere it checks nothing).
// A path ending in "\n" matches one file exactly: /proc/self/maps ends
// each line with the mapped path.
func assertNotMapped(t testing.TB, path string) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return
	}
	if bytes.Contains(maps, []byte(path)) {
		t.Errorf("%q is still mapped", path)
	}
}

// TestFormatGolden pins the on-disk bytes: the CRC-32C of every file the
// writers produce for a hand-built instance and one from each dataset
// generator. They were recomputed when version 8 stopped storing the
// network out-edges and the transition matrix and started storing the
// social edges; every other section payload it writes, other than the
// manifest's layout and the shard headers (which record the shard-file
// digests and the substrate's set id), is byte-identical to version 7's,
// the dictionary and the meta included.
// They change only when the format does — not when the builders are
// rewritten.
func TestFormatGolden(t *testing.T) {
	check := func(what string, data []byte, want uint32) {
		t.Helper()
		if got := crc32.Checksum(data, castagnoli); got != want {
			t.Errorf("%s: CRC-32C %#08x, golden %#08x — the on-disk format changed: bump Version and these digests together", what, got, want)
		}
	}
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 70, 260, 9
	twitter, _ := datagen.Twitter(o)
	vo := datagen.DefaultVodkasterOptions()
	vo.Users, vo.Movies, vo.Seed = 60, 50, 9
	yo := datagen.DefaultYelpOptions()
	yo.Users, yo.Businesses, yo.Seed = 80, 60, 9
	for _, tc := range []struct {
		name               string
		spec               graph.Spec
		an                 text.Analyzer
		snapshot, manifest uint32
		shards             [3]uint32
	}{
		{"hand", handSpec(), text.Analyzer{Lang: text.English},
			0x4241c5f5, 0x5f0dc362, [3]uint32{0xc2b0e0a1, 0xe51e6a3d, 0x68759f4e}},
		{"twitter", twitter, text.Analyzer{Lang: text.None},
			0x44fe4cfb, 0x559befde, [3]uint32{0x02aa6e9a, 0x8f5064c2, 0x81c579fe}},
		{"vodkaster", datagen.Vodkaster(vo), text.Analyzer{Lang: text.None},
			0xb4b9bc66, 0x5005f328, [3]uint32{0x125eebc0, 0xc70d109d, 0xe25fc7b2}},
		{"yelp", datagen.Yelp(yo), text.Analyzer{Lang: text.None},
			0x5f4d75bd, 0x268cb53c, [3]uint32{0x91d164d3, 0xb6822415, 0x58ef47b7}},
	} {
		in, ix := build(t, tc.spec, tc.an)
		var buf bytes.Buffer
		if err := Write(&buf, in, ix); err != nil {
			t.Fatal(err)
		}
		check(tc.name+" snapshot", buf.Bytes(), tc.snapshot)
		manifest, shards := writeSet(t, in, ix, 3)
		check(tc.name+" manifest", manifest, tc.manifest)
		for i, s := range shards {
			check(fmt.Sprintf("%s shard %d", tc.name, i), s, tc.shards[i])
		}
	}
}

// TestOtherVersionRejected stamps every version from 1 to Version+1 but
// Version into the header of each file kind: every opener, copying or
// mapping, must answer with the regenerate error — no panic, no mapping
// left open. (The version field is read before the header checksum, which
// a version-1 file never had.)
func TestOtherVersionRejected(t *testing.T) {
	manifestPath, in, ix := writeSetFiles(t, 40, 150, 11, 2)
	dir := filepath.Dir(manifestPath)
	shardPath := filepath.Join(dir, layoutName(manifestPath, 0))
	snapPath := filepath.Join(dir, "i.snap")
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatal(err)
	}
	goodSnap := buf.Bytes()
	goodManifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	goodShard, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(data []byte, ver uint16) []byte {
		out := bytes.Clone(data)
		binary.LittleEndian.PutUint16(out[len(Magic):], ver)
		return out
	}
	put := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for ver := uint16(1); ver <= Version+1; ver++ {
		if ver == Version {
			continue
		}
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			what := func(s string) string { return fmt.Sprintf("%s version=%d mode=%v", s, ver, mode) }

			put(snapPath, stamp(goodSnap, ver))
			s, err := Open(snapPath, mode)
			wantRegenerate(t, what("Open"), s, err)
			_, _, err = Read(bytes.NewReader(stamp(goodSnap, ver)))
			wantRegenerate(t, what("Read"), nil, err)

			put(manifestPath, stamp(goodManifest, ver))
			m, err := OpenManifest(manifestPath, mode)
			wantRegenerate(t, what("OpenManifest"), m, err)
			wantSetRejected(t, what("stale manifest"), manifestPath, []int{0, 1}, mode)

			// A stale shard file under a current manifest that vouches for
			// its bytes (otherwise the digest would reject it first).
			stale := stamp(goodShard, ver)
			put(manifestPath, goodManifest)
			put(shardPath, stale)
			repointManifest(t, manifestPath, 0, stale)
			wantSetRejected(t, what("stale shard"), manifestPath, []int{0, 1}, mode)
			put(shardPath, goodShard)
			put(manifestPath, goodManifest)

			assertNotMapped(t, dir)
		}
	}

	// The bare eight-byte header of a version-1 file is enough to be told.
	_, _, err = Read(bytes.NewReader([]byte(Magic + "\x01\x00")))
	wantRegenerate(t, "bare version-1 header", nil, err)
}
