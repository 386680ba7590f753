// Package snap implements the versioned binary snapshot format for frozen
// S3 instances. A snapshot stores the graph, each relation once, and what
// is expensive to recompute from an instance's spec — the interned
// dictionary, node tables, the social, tag, comment and post relations,
// the saturated ontology and the connection-index postings — so a query
// engine cold-starts by reading flat arrays from disk instead of
// re-running ontology saturation and the index fixpoint.
//
// # Format
//
// There is one format version, written by Write / WriteShardSet and read
// by every opener: the heavy tables are page-aligned raw little-endian
// arrays behind a fixed-width, checksummed section table (see aligned.go
// and v3.go), which the one decoder reinterprets in place — in a memory
// mapping or in a private copy of the file. Besides the tables of the
// instance it persists two sorted permutations, the dictionary's and the
// ontology's (P,O,S) order, which an open checks in a linear scan instead
// of re-sorting. Whatever else the graph determines — the user,
// document-root and tag lists, depths, document ordinals, children lists,
// the URI→node table, the network out-edges (each relation's edge and
// its inverse), the normalised transition matrix, the keyword
// frequencies, the §5.2 component partition, the statistics and the
// per-posting component summaries — is derived at open time, by the code
// that derives it for a built instance, instead of stored. The small bookkeeping sections (meta, shard layout,
// shard header) are varint-encoded: unsigned varints (encoding/binary),
// strings length-prefixed. The meta holds the analyzer (language,
// stop-word flag) and the node count, which a worker host reads without
// the node tables.
//
// A file of any other version is rejected with an error that says to
// regenerate it with s3gen; there is no migration path.
//
// The in-memory forms are the file's: a graph.Instance holds its tables
// as graph.Raw lays them out (per-node lists in CSR form), built or
// loaded, and the postings travel as index.Flat (keywords ascending,
// events in canonical order), which Write encodes, WriteShardSet splits by
// owner (index.Split) and OpenShardSet merges back (index.Merge). The
// writers encode those arrays as they are, sections in canonical order,
// so the same instance always serialises to the same bytes (snapshots can
// be content-addressed and diffed).
package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/text"
)

// Magic starts every snapshot file.
const Magic = "S3SNAP"

// Version is the one format version this build reads and writes, for
// snapshots, shard-set manifests and shard files alike (they move in
// lockstep).
const Version = 8

// regenerate ends the error for a well-formed file this build cannot
// serve.
const regenerate = "regenerate it with s3gen"

// Section ids of the varint-encoded bookkeeping sections (the raw array
// sections are listed in v3.go). Values are part of the on-disk format;
// never renumber.
const (
	secMeta byte = 2
	// Shard-set sections (see shard.go): the layout table of a shard-set
	// manifest and the linking header of a per-shard file.
	secLayout      byte = 9
	secShardHeader byte = 10
)

// Write serialises the instance and its connection index.
func Write(w io.Writer, in *graph.Instance, ix *index.Index) error {
	secs := append(alignedInstanceSections(in.Raw()), alignedIndexSections(ix.Flat())...)
	return writeAligned(w, Magic, secs)
}

// Read deserialises a snapshot written by Write from a stream into a
// private, 8-byte-aligned buffer and decodes it exactly as Open does a
// file (LoadCopy semantics: nothing aliases the reader). For files, and
// the mapped load, see Open.
func Read(r io.Reader) (*graph.Instance, *index.Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	in, ix, _, err := decodeSnapshot(alignedCopy(data))
	return in, ix, err
}

// decodeSnapshot reconstructs instance and index as views of a snapshot
// file's bytes (which must outlive them), returning the file's section
// spans alongside.
func decodeSnapshot(data []byte) (*graph.Instance, *index.Index, []secSpan, error) {
	const what = "snapshot"
	f, err := readAligned(data, Magic, what, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	in, err := instanceFromPayloads(f.payloads, what)
	if err != nil {
		return nil, nil, nil, err
	}
	flat, err := flatFromPayloads(f.payloads, what)
	if err != nil {
		return nil, nil, nil, err
	}
	ix, err := index.FromFlat(in, flat)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("snap: %w", err)
	}
	return in, ix, f.spans, nil
}

// --- encoding ---

type encoder struct{ bytes.Buffer }

func (e *encoder) uint(v uint64) { e.Write(binary.AppendUvarint(nil, v)) }
func (e *encoder) int(v int)     { e.uint(uint64(v)) }
func (e *encoder) byte1(b byte)  { e.WriteByte(b) }
func (e *encoder) bool(b bool) {
	if b {
		e.WriteByte(1)
	} else {
		e.WriteByte(0)
	}
}
func (e *encoder) str(s string) { e.uint(uint64(len(s))); e.WriteString(s) }

func encodeMeta(r *graph.Raw) *bytes.Buffer {
	var e encoder
	e.byte1(byte(r.Lang))
	e.bool(r.KeepStopwords)
	e.int(len(r.DictID))
	return &e.Buffer
}

// --- decoding ---

// decoder reads the primitive encodings with a sticky error and hard
// bounds checks, so truncated or corrupt payloads surface as errors.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count reads a length prefix and guards it against the remaining bytes
// (each element takes at least min bytes), preventing huge allocations
// from corrupt headers.
func (d *decoder) count(min int) int {
	v := d.uint()
	if d.err != nil {
		return 0
	}
	if remaining := len(d.data) - d.pos; v > uint64(remaining/min+1) {
		d.fail("implausible count %d at offset %d (%d bytes left)", v, d.pos, remaining)
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail("truncated byte at offset %d", d.pos)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.data) {
		d.fail("truncated string at offset %d", d.pos)
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

func decodeMeta(data []byte, r *graph.Raw) (int, error) {
	d := &decoder{data: data}
	r.Lang = text.Lang(d.byte())
	r.KeepStopwords = d.bool()
	numNodes := int(d.uint())
	if d.err != nil {
		return 0, fmt.Errorf("snap: meta section: %w", d.err)
	}
	if r.Lang > text.None {
		return 0, fmt.Errorf("snap: meta section: unknown analyzer language %d", r.Lang)
	}
	return numNodes, nil
}
