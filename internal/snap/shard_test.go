package snap

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// the layout names for shard i, each from an aligned private copy, and
// the merge of their postings.
func readSet(manifest []byte, shards [][]byte) (*ShardSet, error) {
	base, layout, _, err := decodeManifest(alignedCopy(manifest))
	if err != nil {
		return nil, err
	}
	set := &ShardSet{Base: base, Layout: layout}
	sb := newSetBase(base, layout)
	var flats []index.Flat
	for i, data := range shards {
		flat, ix, _, err := decodeShard(alignedCopy(data), sb, i)
		if err != nil {
			return nil, err
		}
		flats = append(flats, flat)
		set.Shards = append(set.Shards, base)
		set.Indexes = append(set.Indexes, ix)
	}
	if set.Index, err = index.Merge(base, flats); err != nil {
		return nil, err
	}
	return set, nil
}

// TestShardSetRoundTrip writes a shard set, reads it back and checks that
// the merged index holds every event of the original once, and that one
// engine over the base instance and the merged index answers exactly like
// the original engine.
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
			// The shards' events add up to the instance's, and the merge
			// files each of them once, in the original order.
			events := 0
			for s, six := range set.Indexes {
				if set.Shards[s] != set.Base {
					t.Errorf("shard %d is not the base instance", s)
				}
				events += six.NumEvents()
			}
			if events != ix.NumEvents() || set.Index.NumEvents() != ix.NumEvents() {
				t.Errorf("shards hold %d events, merged index %d, instance %d", events, set.Index.NumEvents(), ix.NumEvents())
			}
			got, want := set.Index.Flat(), ix.Flat()
			for _, kw := range want.Kws {
				if !slices.Equal(got.Events(kw), want.Events(kw)) {
					t.Fatalf("keyword %d: merged events diverge", kw)
				}
			}

			merged := core.NewEngine(set.Base, set.Index)
			single := core.NewEngine(in, ix)
			users := in.Users()
			kws := in.SortedKeywordsByFrequency()
			checked := 0
			for s := 0; s < len(users) && s < 3; s++ {
				for _, ki := range []int{0, len(kws) / 2, len(kws) - 1} {
					kw := in.Dict().String(kws[ki])
					opts := core.Options{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
					want, _, err1 := single.Search(users[s], []string{kw}, opts)
					got, _, err2 := merged.Search(users[s], []string{kw}, opts)
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

// TestWriteShardSetRefusesBadPartitions: a layout must assign every
// component to exactly one shard. The writer refuses partitions that do
// not, and so does every open of a manifest whose layout was edited to
// break the rule and resealed.
func TestWriteShardSetRefusesBadPartitions(t *testing.T) {
	manifestPath, in, ix := writeSetFiles(t, 40, 150, 11, 2)
	good, err := graph.PartitionComponents(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := good[0][0], good[1][0]
	for _, row := range []struct {
		name  string
		parts [][]int32
		want  string
	}{
		{"component in two groups", [][]int32{good[0], append(slices.Clone(good[1]), c0)}, "assigned to groups 0 and 1"},
		{"component in no group", [][]int32{good[0], good[1][1:]}, fmt.Sprintf("component %d assigned to no group", c1)},
		{"component out of range", [][]int32{good[0], append(slices.Clone(good[1]), int32(in.NumComponents()))}, "outside instance"},
	} {
		ws := []io.Writer{io.Discard, io.Discard}
		err := WriteShardSet(io.Discard, ws, []string{"s-0", "s-1"}, in, ix, row.parts)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: %v, want an error containing %q", row.name, err, row.want)
		}
	}

	for _, row := range []struct {
		name string
		edit func(l *Layout)
		want string
	}{
		{"component twice", func(l *Layout) { l.Shards[1].Comps = append(l.Shards[1].Comps, l.Shards[0].Comps[0]) }, "assigned to groups 0 and 1"},
		{"component left out", func(l *Layout) { l.Shards[1].Comps = l.Shards[1].Comps[1:] }, "assigned to no group"},
		// Without the largest id the layout is a partition on its own, of
		// one component fewer than the instance derives.
		{"largest component left out", func(l *Layout) {
			last := int32(len(l.Owner) - 1)
			s := &l.Shards[l.Owner[last]]
			s.Comps = slices.DeleteFunc(s.Comps, func(c int32) bool { return c == last })
		}, "the instance has"},
	} {
		edited := filepath.Join(t.TempDir(), "edited.set")
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
			row.edit(layout)
			return encodeLayout(layout), true
		})
		if err := os.WriteFile(edited, out, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			set, err := OpenShardSet(edited, mode)
			wantRefused(t, row.name+" OpenShardSet mode="+mode.String(), row.want, set, err)
			man, err := OpenManifest(edited, mode)
			wantRefused(t, row.name+" OpenManifest mode="+mode.String(), row.want, man, err)
		}
		_, err = ParseManifest(out)
		wantRefused(t, row.name+" ParseManifest", row.want, nil, err)
	}
}
