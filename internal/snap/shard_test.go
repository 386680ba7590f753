package snap

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/text"
)

// writeSet serialises a shard set into in-memory buffers.
func writeSet(t testing.TB, in *graph.Instance, ix *index.Index, n int) (manifest []byte, shards [][]byte) {
	t.Helper()
	parts, err := graph.PartitionComponents(in, n)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	sbufs := make([]*bytes.Buffer, n)
	ws := make([]io.Writer, n)
	names := make([]string, n)
	for i := range sbufs {
		sbufs[i] = &bytes.Buffer{}
		ws[i] = sbufs[i]
		names[i] = fmt.Sprintf("set.shard-%d", i)
	}
	if err := WriteShardSet(&mbuf, ws, names, in, ix, parts); err != nil {
		t.Fatal(err)
	}
	shards = make([][]byte, n)
	for i, b := range sbufs {
		shards[i] = b.Bytes()
	}
	return mbuf.Bytes(), shards
}

// readSet decodes a whole in-memory shard set the way OpenShardSet does
// over files in LoadCopy mode: the manifest, then shards[i] as the file
// the layout names for shard i, each from an aligned private copy.
func readSet(manifest []byte, shards [][]byte) (*ShardSet, error) {
	base, layout, _, err := decodeManifest(alignedCopy(manifest))
	if err != nil {
		return nil, err
	}
	set := &ShardSet{Base: base, Layout: layout}
	for i, data := range shards {
		proj, ix, _, err := decodeShard(alignedCopy(data), base, layout, i)
		if err != nil {
			return nil, err
		}
		set.Shards = append(set.Shards, proj)
		set.Indexes = append(set.Indexes, ix)
	}
	return set, nil
}

// TestShardSetRoundTrip writes a shard set, reads it back and checks that
// the fan-out/merge engine over the loaded shards answers exactly like
// the original single engine.
func TestShardSetRoundTrip(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 70, 260, 9
	spec, _ := datagen.Twitter(o)
	in, ix := build(t, spec, text.Analyzer{Lang: text.None})

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			manifest, shards := writeSet(t, in, ix, n)
			set, err := readSet(manifest, shards)
			if err != nil {
				t.Fatal(err)
			}
			if set.Base.Stats() != in.Stats() {
				t.Errorf("base stats changed: %+v vs %+v", set.Base.Stats(), in.Stats())
			}
			// Per-shard stats must sum back to the instance totals.
			docs, comps := 0, 0
			for _, sh := range set.Shards {
				docs += sh.Stats().Documents
				comps += sh.Stats().Components
			}
			if docs != in.Stats().Documents || comps != in.Stats().Components {
				t.Errorf("shards hold %d docs / %d comps, instance %d / %d",
					docs, comps, in.Stats().Documents, in.Stats().Components)
			}

			engines := make([]*core.Engine, len(set.Shards))
			for i := range set.Shards {
				engines[i] = core.NewEngine(set.Shards[i], set.Indexes[i])
			}
			se, err := core.NewShardedEngine(engines)
			if err != nil {
				t.Fatal(err)
			}
			single := core.NewEngine(in, ix)
			users := in.Users()
			kws := in.SortedKeywordsByFrequency()
			checked := 0
			for s := 0; s < len(users) && s < 3; s++ {
				for _, ki := range []int{0, len(kws) / 2, len(kws) - 1} {
					kw := in.Dict().String(kws[ki])
					opts := core.Options{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
					want, _, err1 := single.Search(users[s], []string{kw}, opts)
					got, _, err2 := se.Search(users[s], []string{kw}, opts)
					if err1 != nil || err2 != nil {
						t.Fatalf("search errors: %v / %v", err1, err2)
					}
					if len(want) != len(got) {
						t.Fatalf("seeker %s kw %q: %d vs %d results", in.URIOf(users[s]), kw, len(want), len(got))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("seeker %s kw %q result %d: %+v vs %+v", in.URIOf(users[s]), kw, i, want[i], got[i])
						}
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no queries checked")
			}
		})
	}
}

// TestShardSetRejectsMixups checks the linking validation: stale or
// swapped files must not load.
func TestShardSetRejectsMixups(t *testing.T) {
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 50, 180, 3
	spec, _ := datagen.Twitter(o)
	in, ix := build(t, spec, text.Analyzer{Lang: text.None})
	manifest, shards := writeSet(t, in, ix, 3)

	// Swapped shard files: ordinal check must fire (both have valid sums
	// recorded for their own slots, so the digest check fires first).
	if _, err := readSet(manifest, [][]byte{shards[1], shards[0], shards[2]}); err == nil {
		t.Error("swapped shard files accepted")
	}
	// A shard file from a different instance: digest mismatch.
	o2 := datagen.DefaultTwitterOptions()
	o2.Users, o2.Tweets, o2.Seed = 50, 180, 4
	spec2, _ := datagen.Twitter(o2)
	in2, ix2 := build(t, spec2, text.Analyzer{Lang: text.None})
	_, shards2 := writeSet(t, in2, ix2, 3)
	if _, err := readSet(manifest, [][]byte{shards[0], shards2[1], shards[2]}); err == nil {
		t.Error("foreign shard file accepted")
	}
	// More shard files than the layout names.
	if _, err := readSet(manifest, append(shards, shards[0])); err == nil {
		t.Error("a shard file beyond the layout accepted")
	}
	// A plain snapshot is not a manifest.
	var snapBuf bytes.Buffer
	if err := Write(&snapBuf, in, ix); err != nil {
		t.Fatal(err)
	}
	if _, err := readSet(snapBuf.Bytes(), shards); err == nil {
		t.Error("plain snapshot accepted as manifest")
	}
	// And a manifest is not a plain snapshot.
	if _, _, err := Read(bytes.NewReader(manifest)); err == nil {
		t.Error("manifest accepted as plain snapshot")
	}
}

// TestShardSetRejectsCorruption flips bytes through the manifest and a
// shard file: every mutation must surface as an error, never a panic or
// a silently wrong instance.
func TestShardSetRejectsCorruption(t *testing.T) {
	in, ix := build(t, handSpec(), text.Analyzer{Lang: text.English})
	manifest, shards := writeSet(t, in, ix, 2)

	check := func(name string, m []byte, ss [][]byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: decoding the set panicked: %v", name, r)
			}
		}()
		if set, err := readSet(m, ss); err == nil && set == nil {
			t.Errorf("%s: nil set without error", name)
		}
	}

	for name, m := range map[string][]byte{
		"empty manifest":     {},
		"bad magic":          append([]byte("X3SHMF"), manifest[6:]...),
		"truncated manifest": manifest[:len(manifest)/2],
	} {
		if _, err := readSet(m, shards); err == nil {
			t.Errorf("%s accepted", name)
		}
		check(name, m, shards)
	}

	for i := 8; i < len(manifest); i += 61 {
		m := bytes.Clone(manifest)
		m[i] ^= 0xff
		check(fmt.Sprintf("manifest byte %d", i), m, shards)
	}
	for i := 8; i < len(shards[0]); i += 31 {
		s0 := bytes.Clone(shards[0])
		s0[i] ^= 0xff
		check(fmt.Sprintf("shard byte %d", i), manifest, [][]byte{s0, shards[1]})
		// Any byte flip in a shard file must be caught — the digest
		// guarantees it.
		if _, err := readSet(manifest, [][]byte{s0, shards[1]}); err == nil {
			t.Errorf("shard byte %d: corrupt shard accepted", i)
		}
	}
}
