package snap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"s3/internal/core"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/text"
)

// Fuzz targets for the three file kinds, through the one decoder every
// open runs, mapped or copied: it serves views of the file's own bytes.
// Inputs are resealed, so mutations reach the section checks instead of
// dying at a CRC. Property: decoding never panics, and whatever decodes
// without error answers a search without panicking.

// reseal recomputes, in place, the section checksums and the header
// checksum of a mutated aligned file — as far as its table still locates
// them — so the mutation reaches the section decoders instead of dying at
// a CRC.
func reseal(data []byte) {
	const head = int64(len(Magic) + 10)
	if int64(len(data)) < head {
		return
	}
	tableEnd := head + alignedEntrySize*int64(binary.LittleEndian.Uint32(data[len(Magic)+2:]))
	if tableEnd > int64(len(data)) {
		return
	}
	for e := data[head:tableEnd]; len(e) > 0; e = e[alignedEntrySize:] {
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if end := off + length; end >= off && end <= uint64(len(data)) {
			binary.LittleEndian.PutUint64(e[24:], uint64(crc32.Checksum(data[off:end], castagnoli)))
		}
	}
	binary.LittleEndian.PutUint32(data[len(Magic)+6:], 0)
	binary.LittleEndian.PutUint32(data[len(Magic)+6:], crc32.Checksum(data[:tableEnd], castagnoli))
}

// addSeeds seeds a target with a valid file, truncations of it, the same
// file stamped version 1, and nine one-byte flips spread over its body
// (which the target reseals, so each reaches whatever section it hit).
func addSeeds(f *testing.F, good []byte) {
	seeds := [][]byte{good}
	for _, cut := range []int{0, 7, 8, 15, 16, len(good) / 3, len(good) - 1} {
		seeds = append(seeds, good[:cut])
	}
	old := bytes.Clone(good)
	binary.LittleEndian.PutUint16(old[len(Magic):], 1)
	seeds = append(seeds, old)
	for i := 1; i <= 9; i++ {
		flip := bytes.Clone(good)
		flip[len(good)*i/10] ^= 0x55
		seeds = append(seeds, flip)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
}

// probe runs one bounded search over a decoded instance.
func probe(in *graph.Instance, ix *index.Index) {
	users, kws := in.Users(), in.SortedKeywordsByFrequency()
	if len(users) == 0 || len(kws) == 0 {
		return
	}
	opts := core.Options{K: 3, Params: defaultParams(), MaxIterations: 8}
	_, _, _ = core.NewEngine(in, ix).Search(users[0], []string{in.Dict().String(kws[0])}, opts)
}

func FuzzDecodeSnapshot(f *testing.F) {
	in, ix := build(f, handSpec(), text.Analyzer{Lang: text.English})
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		f.Fatal(err)
	}
	addSeeds(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		data = alignedCopy(data)
		reseal(data)
		if in, ix, _, err := decodeSnapshot(data); err == nil {
			probe(in, ix)
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	in, ix := build(f, handSpec(), text.Analyzer{Lang: text.English})
	manifest, _ := writeSet(f, in, ix, 2)
	addSeeds(f, manifest)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = alignedCopy(data)
		reseal(data)
		base, _, _, err := decodeManifest(data)
		if err != nil {
			return
		}
		// What a coordinator does with a manifest: resolve the query.
		if kws := base.SortedKeywordsByFrequency(); len(kws) > 0 {
			_, _, _ = core.ResolveKeywordGroups(base, []string{base.Dict().String(kws[0])})
		}
	})
}

// shardFuzzSet is what FuzzDecodeShard decodes its inputs against: the
// base instance and layout of a two-shard set of the hand-built instance,
// and the bytes of its shard 0.
func shardFuzzSet(t testing.TB) (*graph.Instance, *Layout, []byte) {
	in, ix := build(t, handSpec(), text.Analyzer{Lang: text.English})
	manifest, shards := writeSet(t, in, ix, 2)
	base, layout, _, err := decodeManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	return base, layout, shards[0]
}

// vouchFor returns a copy of layout whose shard 0 entry vouches for data,
// as reseal does for the sections: the digest is a checksum like the
// others.
func vouchFor(layout *Layout, data []byte) *Layout {
	vouching := &Layout{SetID: layout.SetID, Shards: slices.Clone(layout.Shards), Owner: layout.Owner}
	vouching.Shards[0].Sum = uint64(crc32.Checksum(data, castagnoli))
	return vouching
}

// userFragmentShard returns a resealed copy of a shard file whose first
// event lies on a user node of base: an event in no component.
func userFragmentShard(t testing.TB, base *graph.Instance, shard []byte) []byte {
	data := bytes.Clone(shard)
	put32(sectionOf(t, data, ShardMagic, sec3IndexEvents), 0, uint32(base.Users()[0]))
	reseal(data)
	return data
}

func FuzzDecodeShard(f *testing.F) {
	base, layout, shard := shardFuzzSet(f)
	addSeeds(f, shard)
	f.Add(userFragmentShard(f, base, shard))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = alignedCopy(data)
		reseal(data)
		vouching := vouchFor(layout, data)
		if _, six, _, err := decodeShard(data, newSetBase(base, vouching), 0); err == nil {
			probe(base, six)
		}
		// What a worker host does with the same file: validate the flat
		// postings, then answer every keyword.
		if flat, _, _, err := decodeWorkerShard(data, vouching, 0, base.NumNodes()); err == nil {
			for _, kw := range flat.Kws {
				flat.Events(kw)
			}
		}
	})
}

// TestShardFuzzRegressionReachesValidate replays the FuzzDecodeShard input
// that found an out-of-range event type panicking a search. It is a file
// of the current format version, so both shard decoders must refuse it
// for its event type. Were it refused at the version check instead, it
// would quietly stop covering what it was added for: after a version bump
// it has to be rewritten in the new version.
func TestShardFuzzRegressionReachesValidate(t *testing.T) {
	corpus, err := os.ReadFile("testdata/fuzz/FuzzDecodeShard/ea8d81a7d240e182")
	if err != nil {
		t.Fatal(err)
	}
	// A corpus file is "go test fuzz v1" and one []byte("…") line.
	lines := strings.Split(string(corpus), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	data := alignedCopy([]byte(s))
	reseal(data)
	base, layout, _ := shardFuzzSet(t)
	vouching := vouchFor(layout, data)
	const want = "unknown connection type"
	_, _, _, err = decodeShard(data, newSetBase(base, vouching), 0)
	wantRefused(t, "decodeShard", want, nil, err)
	_, _, _, err = decodeWorkerShard(data, vouching, 0, base.NumNodes())
	wantRefused(t, "decodeWorkerShard", want, nil, err)
}
