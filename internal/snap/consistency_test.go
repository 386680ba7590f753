package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3/internal/graph"
	"s3/internal/text"
)

// sectionOf returns the payload of section id inside an aligned file's
// bytes, for editing in place.
func sectionOf(t testing.TB, data []byte, magic string, id byte) []byte {
	t.Helper()
	spans, _, err := parseAlignedTable(data, magic, "file under test")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range spans {
		if sp.id == id {
			return data[sp.off : sp.off+sp.len]
		}
	}
	t.Fatalf("no section %d", id)
	return nil
}

func get32(p []byte, i int) uint32    { return binary.LittleEndian.Uint32(p[4*i:]) }
func put32(p []byte, i int, v uint32) { binary.LittleEndian.PutUint32(p[4*i:], v) }
func swap32(p []byte, i, j int) {
	a, b := get32(p, i), get32(p, j)
	put32(p, i, b)
	put32(p, j, a)
}

// wantRefused fails unless an open failed with an error containing want;
// whatever it opened instead is closed.
func wantRefused(t testing.TB, what, want string, opened interface{ Close() error }, err error) {
	t.Helper()
	switch {
	case err == nil:
		if opened != nil {
			opened.Close()
		}
		t.Errorf("%s: accepted", what)
	case !strings.Contains(err.Error(), want):
		t.Errorf("%s: refused with %q, want an error containing %q", what, err, want)
	}
}

// TestResealedInconsistencyRejected overwrites one section of a valid
// file in place and reseals its checksums, so the file is intact but
// says something its other sections contradict. Every open — copied and
// mapped, and the stream Read — must refuse it with the error of the one
// check the edit breaks: each row is one content check of the decoder.
func TestResealedInconsistencyRejected(t *testing.T) {
	in, ix := build(t, handSpec(), text.Analyzer{Lang: text.English})
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	path := filepath.Join(dir, "r.snap")

	// sameCompPair finds two adjacent events of one posting and one
	// component, whose swap breaks only the canonical order.
	sameCompPair := func() int {
		evOff, err := view[int64](alignedCopy(sectionOf(t, good, Magic, sec3IndexEvOff)), "")
		if err != nil {
			t.Fatal(err)
		}
		evs := sectionOf(t, good, Magic, sec3IndexEvents)
		comp := func(i int64) int32 { return in.CompOf(graph.NID(get32(evs, 3*int(i)))) }
		for k := 0; k+1 < len(evOff); k++ {
			for i := evOff[k]; i+1 < evOff[k+1]; i++ {
				if comp(i) == comp(i+1) {
					return int(i)
				}
			}
		}
		t.Fatal("no posting has two events in one component")
		return 0
	}

	for _, row := range []struct {
		name string
		sec  byte
		edit func(p []byte)
		want string
	}{
		{"dictionary order", sec3DictPerm, func(p []byte) { swap32(p, 0, 1) }, "sort index is not strictly ascending"},
		{"triple order", sec3TripleSPO, func(p []byte) { swap32(p, 0, 1) }, "spo permutation is not strictly ascending"},
		{"two nodes share a URI", sec3NodeDictID, func(p []byte) { put32(p, 1, get32(p, 0)) }, "share one URI"},
		{"tag order", sec3TagList, func(p []byte) { swap32(p, 0, 1) }, "tag list is not strictly ascending"},
		{"frequency keyword order", sec3KwFreqKeys, func(p []byte) { swap32(p, 0, 1) }, "frequency keywords are not strictly ascending"},
		{"event order", sec3IndexEvents, func(p []byte) {
			i := sameCompPair()
			a, b := bytes.Clone(p[12*i:12*i+12]), bytes.Clone(p[12*i+12:12*i+24])
			copy(p[12*i:], b)
			copy(p[12*i+12:], a)
		}, "out of canonical order"},
		{"event on a user node", sec3IndexEvents, func(p []byte) { put32(p, 0, uint32(in.Users()[0])) }, "lies in no component"},
	} {
		data := bytes.Clone(good)
		row.edit(sectionOf(t, data, Magic, row.sec))
		reseal(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			s, err := Open(path, mode)
			wantRefused(t, row.name+" mode="+mode.String(), row.want, s, err)
		}
		_, _, err := Read(bytes.NewReader(data))
		wantRefused(t, row.name+" Read", row.want, nil, err)
	}

	// A shard file whose events all lie in another shard's components:
	// shard 1's index sections under shard 0's header, with the event
	// count of the header and the manifest repointed to match. Every
	// section agrees with the others, but the manifest gives the events'
	// components to shard 1.
	manifestPath, _, _ := writeSetFiles(t, 40, 150, 11, 2)
	m, err := OpenManifest(manifestPath, LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Dir(manifestPath)
	read := func(i int) []byte {
		data, err := os.ReadFile(filepath.Join(dir, layoutName(manifestPath, i)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	shard0, shard1 := read(0), read(1)
	events := m.Layout.Shards[1].Events
	shard := rebuildAligned(t, shard0, ShardMagic, func(id byte, p []byte) ([]byte, bool) {
		switch id {
		case secShardHeader:
			hdr, err := decodeShardHeader(p, m.Layout, 0)
			if err != nil {
				t.Fatal(err)
			}
			hdr.events = events
			return encodeShardHeader(m.Layout.SetID, 0, len(m.Layout.Shards), hdr), true
		case sec3IndexKw, sec3IndexEvOff, sec3IndexEvents:
			return sectionOf(t, shard1, ShardMagic, id), true
		}
		return p, true
	})
	if err := os.WriteFile(filepath.Join(dir, layoutName(manifestPath, 0)), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	repointManifest(t, manifestPath, m.Base.NumComponents(), 0, shard, func(d *ShardDesc) { d.Events = events })
	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		set, err := OpenShardSet(manifestPath, mode)
		wantRefused(t, "shard ownership mode="+mode.String(), "foreign component", set, err)
	}

	// A shard file whose first event lies on a user node, which has no
	// component and so no owner. (A worker host holds no node table and
	// serves it; the coordinator refuses the reply.)
	manifestPath, _, _ = writeSetFiles(t, 40, 150, 11, 2)
	m, err = OpenManifest(manifestPath, LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(filepath.Dir(manifestPath), layoutName(manifestPath, 0))
	shard0, err = os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	shard = userFragmentShard(t, m.Base, shard0)
	if err := os.WriteFile(shardPath, shard, 0o644); err != nil {
		t.Fatal(err)
	}
	repointManifest(t, manifestPath, m.Base.NumComponents(), 0, shard)
	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		set, err := OpenShardSet(manifestPath, mode)
		wantRefused(t, "user-node event mode="+mode.String(), "lies in no component", set, err)
	}
}

// TestUnaliasableHostRefused runs only where layoutMappable does not hold
// (GOARCH=386, say): there every opener, in each mode, must answer
// errUnaliasableHost rather than serve.
func TestUnaliasableHostRefused(t *testing.T) {
	if layoutMappable() {
		t.Skip("this host's struct layout aliases the format")
	}
	manifestPath, in, ix := writeSetFiles(t, 30, 110, 5, 2)
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(filepath.Dir(manifestPath), "i.snap")
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, opened interface{ Close() error }, err error) {
		t.Helper()
		if err == nil {
			if opened != nil {
				opened.Close()
			}
			t.Errorf("%s: accepted", what)
		} else if !errors.Is(err, errUnaliasableHost) {
			t.Errorf("%s: refused with %q, want %q", what, err, errUnaliasableHost)
		}
	}
	for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
		s, err := Open(snapPath, mode)
		check("Open mode="+mode.String(), s, err)
		set, err := OpenShardSet(manifestPath, mode)
		check("OpenShardSet mode="+mode.String(), set, err)
		man, err := OpenManifest(manifestPath, mode)
		check("OpenManifest mode="+mode.String(), man, err)
		w, err := OpenWorkerHost(manifestPath, []int{0, 1}, mode, VerifyEager)
		check("OpenWorkerHost mode="+mode.String(), w, err)
	}
	_, _, err = Read(bytes.NewReader(buf.Bytes()))
	check("Read", nil, err)
	man, err := ParseManifest(manifest)
	check("ParseManifest", man, err)
}
