// The aligned container: a snapshot-family file whose section table
// carries absolute offsets, lengths and checksums in fixed-width fields,
// with the heavy payloads stored as raw little-endian arrays at 64-byte
// aligned offsets. A reader that memory-maps the file can hand each raw
// section to unsafe.Slice and serve queries from the page cache without
// decoding anything; integrity is validated per section header (one
// checksum pass over the payload) instead of per datum.
//
//	off  0: magic (6 bytes)
//	off  6: uint16 format version (little-endian)
//	off  8: uint32 section count
//	off 12: uint32 CRC-32C of the header and table (with this field zero)
//	off 16: count × 32-byte table entries:
//	        uint32 id | uint32 flags | uint64 offset | uint64 length |
//	        uint64 CRC-32C of the payload (low 32 bits)
//	then the payloads in table order; sections with flagRaw start at
//	64-byte aligned offsets, varint sections are packed. Gaps are zero.
//
// The writer emits sections in ascending id order with deterministic
// padding: the same instance always serialises to the same bytes.
package snap

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// castagnoli is the CRC-32C table: hardware-accelerated on amd64/arm64,
// so the per-section integrity pass runs at memory bandwidth instead of
// FNV's byte-at-a-time rate (which would dominate a mapped cold start).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rawAlign is the alignment of raw section payloads. 64 covers every
// element type in the format (the widest is 8 bytes) and keeps each
// section cache-line aligned; mmap bases are page-aligned, so file
// alignment carries over to memory.
const rawAlign = 64

const (
	alignedHeaderSize = 16
	alignedEntrySize  = 32

	// flagRaw marks a section stored as a fixed-width little-endian array
	// (eligible for zero-copy reinterpretation); unflagged sections hold
	// varint-encoded metadata.
	flagRaw = 1
)

// asec is one section of an aligned file under construction.
type asec struct {
	id   byte
	raw  bool
	data []byte
}

// writeAligned assembles and emits an aligned file of the current format
// version. It lays the sections out in ascending id order (the canonical
// order) whatever order they are given in; an id given twice is refused.
func writeAligned(w io.Writer, magic string, secs []asec) error {
	secs = slices.Clone(secs)
	slices.SortFunc(secs, func(a, b asec) int { return cmp.Compare(a.id, b.id) })
	var buf bytes.Buffer
	buf.WriteString(magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], Version)
	buf.Write(u16[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(secs)))
	buf.Write(u32[:])
	buf.Write([]byte{0, 0, 0, 0}) // header checksum, patched below

	// Lay the payloads out after the table.
	off := int64(len(magic)) + 10 + alignedEntrySize*int64(len(secs))
	if int64(alignedHeaderSize)+alignedEntrySize*int64(len(secs)) != off {
		return fmt.Errorf("snap: aligned header size drifted from its constant")
	}
	type placed struct {
		asec
		off int64
	}
	placement := make([]placed, 0, len(secs))
	for i, s := range secs {
		if i > 0 && secs[i-1].id == s.id {
			return fmt.Errorf("snap: aligned section %d given twice", s.id)
		}
		if s.raw {
			off = (off + rawAlign - 1) &^ (rawAlign - 1)
		}
		placement = append(placement, placed{asec: s, off: off})
		off += int64(len(s.data))
	}
	var entry [alignedEntrySize]byte
	for _, p := range placement {
		binary.LittleEndian.PutUint32(entry[0:], uint32(p.id))
		var flags uint32
		if p.raw {
			flags = flagRaw
		}
		binary.LittleEndian.PutUint32(entry[4:], flags)
		binary.LittleEndian.PutUint64(entry[8:], uint64(p.off))
		binary.LittleEndian.PutUint64(entry[16:], uint64(len(p.data)))
		binary.LittleEndian.PutUint64(entry[24:], uint64(crc32.Checksum(p.data, castagnoli)))
		buf.Write(entry[:])
	}
	// Seal the header and table under their own checksum (the field
	// itself is hashed as zero), so a flipped offset, length, id or flag
	// is caught before any payload is interpreted.
	out := buf.Bytes()
	binary.LittleEndian.PutUint32(out[len(magic)+6:], crc32.Checksum(out, castagnoli))
	for _, p := range placement {
		for int64(buf.Len()) < p.off {
			buf.WriteByte(0)
		}
		buf.Write(p.data)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("snap: writing aligned snapshot: %w", err)
	}
	return nil
}

// secSpan locates one section's payload inside an aligned file.
type secSpan struct {
	id       byte
	off, len int64
	sum      uint64
}

// parseAlignedTable validates an aligned file's header and section table
// (magic, format version, bounds, ordering, alignment, the header's own
// checksum) and returns the section spans plus the table's end offset —
// everything a reader needs to locate payloads. It is the only place a
// file's header is interpreted, for all three magics. Payload bytes are
// not touched: checksum verification is the caller's job, per section it
// actually keeps.
func parseAlignedTable(data []byte, magic string, what string) ([]secSpan, int64, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("snap: not a %s (bad magic)", what)
	}
	if ver := binary.LittleEndian.Uint16(data[len(magic):]); ver != Version {
		return nil, 0, fmt.Errorf("snap: %s is format version %d, this build reads %d — %s", what, ver, Version, regenerate)
	}
	if len(data) < len(magic)+10 {
		return nil, 0, fmt.Errorf("snap: %s header is truncated", what)
	}
	count := int(binary.LittleEndian.Uint32(data[len(magic)+2:]))
	tableEnd := int64(len(magic)) + 10 + alignedEntrySize*int64(count)
	if count < 0 || tableEnd > int64(len(data)) {
		return nil, 0, fmt.Errorf("snap: %s section table overruns the file", what)
	}
	headSum := binary.LittleEndian.Uint32(data[len(magic)+6:])
	head := bytes.Clone(data[:tableEnd])
	binary.LittleEndian.PutUint32(head[len(magic)+6:], 0)
	if crc32.Checksum(head, castagnoli) != headSum {
		return nil, 0, fmt.Errorf("snap: %s header fails its checksum", what)
	}
	out := make([]secSpan, 0, count)
	seen := make(map[byte]struct{}, count)
	prevEnd := tableEnd
	for i := 0; i < count; i++ {
		e := data[int64(len(magic))+10+alignedEntrySize*int64(i):]
		id := binary.LittleEndian.Uint32(e[0:])
		flags := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		sum := binary.LittleEndian.Uint64(e[24:])
		if id > math.MaxUint8 {
			return nil, 0, fmt.Errorf("snap: %s section id %d out of range", what, id)
		}
		if _, dup := seen[byte(id)]; dup {
			return nil, 0, fmt.Errorf("snap: duplicate section %d", id)
		}
		seen[byte(id)] = struct{}{}
		end := off + length
		if off > uint64(len(data)) || end < off || end > uint64(len(data)) || int64(off) < prevEnd {
			return nil, 0, fmt.Errorf("snap: section %d overruns %s", id, what)
		}
		if flags&flagRaw != 0 && off%rawAlign != 0 {
			return nil, 0, fmt.Errorf("snap: raw section %d at unaligned offset %d", id, off)
		}
		prevEnd = int64(end)
		out = append(out, secSpan{id: byte(id), off: int64(off), len: int64(length), sum: sum})
	}
	return out, tableEnd, nil
}

// alignedFile is a parsed aligned file: the payload views of the sections
// a reader kept (aliasing the file's bytes; nothing is copied) and where
// they sit, for per-section madvise.
type alignedFile struct {
	payloads map[byte][]byte
	spans    []secSpan
}

// readAligned parses an aligned file over data (a private buffer or a
// memory mapping), restricted to the section ids in keep (nil keeps
// everything): skipped sections are bounds-checked through the table but
// their payloads are neither checksummed nor touched, so a reader that
// needs a few small sections of a mapped file faults in only their pages.
// The kept payloads are checksummed before it returns. It is the one
// entry of every decode, so it is where a host that cannot view the
// format in place is refused.
func readAligned(data []byte, magic string, what string, keep []byte) (*alignedFile, error) {
	if !layoutMappable() {
		return nil, errUnaliasableHost
	}
	entries, _, err := parseAlignedTable(data, magic, what)
	if err != nil {
		return nil, err
	}
	f := &alignedFile{payloads: make(map[byte][]byte, len(entries))}
	for _, en := range entries {
		if keep != nil && bytes.IndexByte(keep, en.id) < 0 {
			continue
		}
		f.payloads[en.id] = data[en.off : en.off+en.len]
		f.spans = append(f.spans, en)
	}
	if err := verifyAlignedSpans(data, f.spans, what); err != nil {
		return nil, err
	}
	return f, nil
}

// verifyAlignedSpans checksums the given section payloads of data in
// parallel: the pass is memory-bandwidth bound and the dominant cost of
// a mapped cold start, so spreading it over cores directly shortens the
// open.
func verifyAlignedSpans(data []byte, spans []secSpan, what string) error {
	var bad atomic.Int32
	bad.Store(-1)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(spans) {
		workers = len(spans)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				sp := spans[i]
				if uint64(crc32.Checksum(data[sp.off:sp.off+sp.len], castagnoli)) != sp.sum {
					bad.Store(int32(sp.id))
				}
			}
		}()
	}
	wg.Wait()
	if id := bad.Load(); id >= 0 {
		return fmt.Errorf("snap: section %d of %s fails its checksum", id, what)
	}
	return nil
}

// requireSections reports the first of ids missing from a file's payloads.
func requireSections(payloads map[byte][]byte, what string, ids []byte) error {
	for _, id := range ids {
		if _, ok := payloads[id]; !ok {
			return fmt.Errorf("snap: %s missing required section %d", what, id)
		}
	}
	return nil
}
