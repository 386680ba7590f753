package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"s3/internal/text"
)

// alignedSpans parses an aligned file's section table and returns the byte
// ranges that are covered by integrity checks: the header+table prefix
// and every section payload. Bytes outside (alignment padding) are
// legitimately unchecked.
func alignedSpans(t *testing.T, data []byte, magic string) [][2]int {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[len(magic)+2:]))
	tableEnd := len(magic) + 10 + alignedEntrySize*count
	spans := [][2]int{{0, tableEnd}}
	for i := 0; i < count; i++ {
		e := data[len(magic)+10+alignedEntrySize*i:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		spans = append(spans, [2]int{int(off), int(off + length)})
	}
	return spans
}

// TestAlignedRejectsCorruption holds the aligned format to its guarantee:
// every bit flip inside the header, the section table or any section
// payload must be rejected, not merely survive without a panic. Both the
// stream reader and the mapped opener are exercised.
func TestAlignedRejectsCorruption(t *testing.T) {
	in, ix := build(t, handSpec(), text.Analyzer{Lang: text.English})
	var buf bytes.Buffer
	if err := Write(&buf, in, ix); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()

	checkRejected := func(t *testing.T, data []byte, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panicked: %v", what, r)
			}
		}()
		if _, _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: copy Read accepted corrupt snapshot", what)
		}
		path := filepath.Join(dir, "c.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path, LoadMmap); err == nil {
			s.Close()
			t.Errorf("%s: mapped Open accepted corrupt snapshot", what)
		}
	}

	// Truncations at every granularity.
	for _, cut := range []int{0, 4, 7, 9, 15, len(good) / 3, len(good) - 1} {
		checkRejected(t, good[:cut], fmt.Sprintf("truncated to %d", cut))
	}

	// Bit flips across every checked span (sampled for speed).
	for _, span := range alignedSpans(t, good, Magic) {
		step := (span[1]-span[0])/37 + 1
		for off := span[0]; off < span[1]; off += step {
			b := bytes.Clone(good)
			b[off] ^= 0x41
			checkRejected(t, b, fmt.Sprintf("flip at %d", off))
		}
	}
}

// TestMappedOpenMatchesRead checks the two load modes against each other
// at the package level (the facade-level property test covers whole
// datasets): identical search transcripts and statistics.
func TestMappedOpenMatchesRead(t *testing.T) {
	in, ix := build(t, handSpec(), text.Analyzer{Lang: text.English})
	path := filepath.Join(t.TempDir(), "i.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, in, ix); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Mode != LoadMmap || s.Mapping == nil || s.MappedBytes() == 0 {
		t.Fatalf("expected a live mapping, got mode=%v mapped=%d", s.Mode, s.MappedBytes())
	}
	c, err := Open(path, LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != LoadCopy || c.Mapping != nil {
		t.Fatalf("copy open returned mode=%v", c.Mode)
	}
	if got, want := searchAll(t, s.Instance, s.Index), searchAll(t, c.Instance, c.Index); got != want {
		t.Errorf("mapped and copied instances diverge:\nmapped:\n%s\ncopied:\n%s", got, want)
	}
	if s.Instance.Stats() != c.Instance.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", s.Instance.Stats(), c.Instance.Stats())
	}
}
