// Package dshard serves a shard set across processes: worker processes
// that hold the shards' slices of the connection index, and a coordinator
// that runs every search itself.
//
// S3k's expensive part, the all-paths social-proximity exploration, depends
// on the seeker alone, and it runs over the substrate the coordinator
// already maps with the manifest. The only keyword-dependent input is the
// connection index's postings for the query's keywords, and only they are
// sharded. So a search is one postings exchange per worker host: the
// coordinator asks each host of its shard cover for the events of the
// query's keywords on the shards it picked there, builds an index over
// the substrate from the replies (index.FromRaw) and runs S3k over it in
// process. Its answer is byte-identical to the in-process shard set's,
// property-tested in dshard_test.go.
//
// One search endpoint, POST with little-endian application/octet-stream
// bodies, plus GET /manifest (the manifest file, for a coordinator built
// without its substrate), GET /healthz (readiness), GET /stats and POST
// /reload on workers:
//
//	/shard/v1/postings  the events of some keywords on some hosted shards
//
// Every request and reply body is one record, `len u32 · CRC-32C(payload)
// u32 · payload`. Payloads:
//
//	request  traceID u64 · nShards u32 · shard u32… · nKw u32 · kw u32…
//	reply    per requested shard, per requested keyword: n u32 · (frag u32 · src u32 · type u8)×n
//	         · [span block]
//
// A shard's events for a keyword are its index.Events, in canonical order;
// the coordinator re-sorts the concatenation of the shards' blocks, as
// FromRaw does.
//
// CRC rule: the receiver checks a record's CRC before decoding it, and a
// body must end where its record does. A fault that flips bits in transit
// or cuts a body short is a detected transport error — 422 from the
// worker, a failover on the coordinator — never a silently perturbed
// answer. The coordinator also checks every event against its substrate
// and layout, and every block for strictly canonical order, so a worker
// answering for a shard it does not hold, or repeating an event, is a
// failover too.
//
// Version rule: /healthz advertises one protocol number ("proto"), and a
// coordinator only routes to workers reporting its own protoVersion; any
// other worker is listed unhealthy with both numbers in its error.
package dshard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
)

// Decode limits: a conforming peer never exceeds these, and neither side
// lets a malformed body size an allocation.
const (
	maxFrameSize = 64 << 20
	maxWireSpans = 512
	maxSpanName  = 256
	maxSpanAttrs = 32
	maxAttrLen   = 1024
	// maxHostShards caps the shards of one request; a conforming
	// coordinator never exceeds the set's shard count.
	maxHostShards = 256
	// maxKeywords caps the keywords of one request: every keyword of every
	// semantic extension of the query.
	maxKeywords = 1 << 20
)

// wire paths.
const (
	pathPostings = "/shard/v1/postings"
	pathManifest = "/manifest"
)

// protoVersion is the protocol version this build speaks ("proto" in
// worker /healthz); the probe lists a worker on any other unhealthy. It
// also bumps when only the floats a search computes change (7: ascending
// summation; 8–10: versions of the round protocol, whose workers ran the
// exploration; 11: one postings exchange per host, the coordinator
// explores).
const protoVersion = 11

// --- records ---

// recordHeader is a record's length and CRC-32C (Castagnoli) of its payload.
const recordHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// openRecord reserves a record's header; sealRecord fills it in once the
// payload has been appended after it.
func openRecord(b []byte) (*enc, int) {
	return &enc{b: append(b, make([]byte, recordHeader)...)}, len(b)
}

func sealRecord(e *enc, start int) []byte {
	p := e.b[start+recordHeader:]
	binary.LittleEndian.PutUint32(e.b[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(e.b[start+4:], crc32.Checksum(p, crcTable))
	return e.b
}

// appendRecord frames payload as one record.
func appendRecord(b, payload []byte) []byte {
	e, start := openRecord(b)
	e.b = append(e.b, payload...)
	return sealRecord(e, start)
}

// readBody reads a body that is exactly one record and returns its
// payload. A body cut short — inside the record or where it should start
// — is an error like a failed CRC, and so are bytes past the record.
func readBody(r io.Reader) ([]byte, error) {
	var h [recordHeader]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, cutShort(err)
	}
	n := binary.LittleEndian.Uint32(h[:4])
	if n > maxFrameSize {
		return nil, fmt.Errorf("dshard: record of %d bytes (cap %d)", n, maxFrameSize)
	}
	// Grow with what arrives, not with what the header claims: a corrupted
	// length must not size an allocation.
	var p []byte
	for len(p) < int(n) {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(int(n)-len(p), max(cap(p), 4096)))
		}
		m, err := r.Read(p[len(p):min(cap(p), int(n))])
		if p = p[:len(p)+m]; err != nil && len(p) < int(n) {
			return nil, cutShort(err)
		}
	}
	if got, want := crc32.Checksum(p, crcTable), binary.LittleEndian.Uint32(h[4:]); got != want {
		return nil, fmt.Errorf("dshard: record CRC mismatch (got %08x, header %08x)", got, want)
	}
	var b [1]byte
	if m, err := r.Read(b[:]); m > 0 || err == nil {
		return nil, fmt.Errorf("dshard: bytes past the record")
	} else if err != io.EOF {
		return nil, err
	}
	return p, nil
}

func cutShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// enc is a little-endian frame builder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// dec is a little-endian frame reader with a sticky error.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dshard: "+format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("truncated frame")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("truncated frame")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("truncated frame")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// count reads a list length and rejects one whose items, at least size
// bytes each, cannot fit in what is left of the frame.
func (d *dec) count(size int, what string) int {
	n := int(d.u32())
	if d.err == nil && n > (len(d.b)-d.off)/size {
		d.fail("%d %s overrun a frame of %d bytes", n, what, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (d *dec) str(max int) string {
	n := int(d.u32())
	if d.err == nil && n > max {
		d.fail("string of %d bytes (cap %d)", n, max)
	}
	if d.err != nil || d.off+n > len(d.b) {
		d.fail("truncated frame")
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("dshard: %d trailing bytes in frame", len(d.b)-d.off)
	}
	return nil
}

// --- span blocks ---

// encodeSpanBlock appends root's span tree in preorder: count, then per
// span its parent's index in the stream (the sentinel for the root), its
// name, start offset and duration in microseconds (relative to the
// block's root span) and attributes. Offsets are block-relative because
// worker and coordinator clocks are not comparable — the decoder rebases
// onto a coordinator-side anchor.
const spanNoParent = ^uint32(0)

func encodeSpanBlock(e *enc, root *obs.Span) {
	if root == nil {
		return // untraced: no block
	}
	type item struct {
		sp     *obs.Span
		parent uint32
	}
	flat := make([]item, 0, 16)
	var walk func(sp *obs.Span, parent uint32)
	walk = func(sp *obs.Span, parent uint32) {
		if sp == nil || len(flat) >= maxWireSpans {
			return
		}
		idx := uint32(len(flat))
		flat = append(flat, item{sp, parent})
		for _, c := range sp.Children {
			walk(c, idx)
		}
	}
	walk(root, spanNoParent)
	base := root.Start
	e.u32(uint32(len(flat)))
	for _, it := range flat {
		e.u32(it.parent)
		name := it.sp.Name
		if len(name) > maxSpanName {
			name = name[:maxSpanName]
		}
		e.str(name)
		e.u64(uint64(max(it.sp.Start.Sub(base).Microseconds(), 0)))
		e.u64(uint64(max(it.sp.Dur.Microseconds(), 0)))
		attrs := it.sp.Attrs
		if len(attrs) > maxSpanAttrs {
			attrs = attrs[:maxSpanAttrs]
		}
		e.u32(uint32(len(attrs)))
		for _, a := range attrs {
			e.str(a.Key)
			e.str(a.Value)
		}
	}
}

// decodeSpanBlock reads one span block, rebasing span start times onto
// base (the coordinator-side moment the RPC began).
func decodeSpanBlock(d *dec, base time.Time) *obs.Span {
	n := int(d.u32())
	if d.err == nil && n > maxWireSpans {
		d.fail("%d wire spans", n)
	}
	spans := make([]*obs.Span, 0, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		parent := d.u32()
		name := d.str(maxSpanName)
		startUS := d.u64()
		durUS := d.u64()
		sp := &obs.Span{
			Name:  name,
			Start: base.Add(time.Duration(startUS) * time.Microsecond),
			Dur:   time.Duration(durUS) * time.Microsecond,
		}
		na := int(d.u32())
		if d.err == nil && na > maxSpanAttrs {
			d.fail("%d span attrs", na)
		}
		for j := 0; j < na && d.err == nil; j++ {
			sp.Attrs = append(sp.Attrs, obs.Attr{Key: d.str(maxSpanName), Value: d.str(maxAttrLen)})
		}
		switch {
		case parent == spanNoParent:
			if i != 0 {
				d.fail("span %d claims to be a second root", i)
			}
		case int(parent) >= len(spans):
			d.fail("span %d references parent %d out of order", i, parent)
		default:
			spans[parent].Children = append(spans[parent].Children, sp)
		}
		spans = append(spans, sp)
	}
	if d.err != nil || len(spans) == 0 {
		return nil
	}
	return spans[0]
}

// --- postings ---

// postingsRequest asks a worker for the events of kws on a list of its
// hosted shards. traceID, when non-zero, asks the worker to record the
// request in its trace ring and return its span.
type postingsRequest struct {
	traceID uint64
	shards  []int
	kws     []dict.ID
}

func appendPostingsRequest(b []byte, r postingsRequest) []byte {
	e := enc{b: b}
	e.u64(r.traceID)
	e.u32(uint32(len(r.shards)))
	for _, s := range r.shards {
		e.u32(uint32(s))
	}
	e.u32(uint32(len(r.kws)))
	for _, k := range r.kws {
		e.u32(uint32(k))
	}
	return e.b
}

func decodePostingsRequest(b []byte) (postingsRequest, error) {
	d := &dec{b: b}
	r := postingsRequest{traceID: d.u64()}
	ns := d.count(4, "shards")
	if d.err == nil && (ns == 0 || ns > maxHostShards) {
		d.fail("%d shards in a postings request", ns)
	}
	for i := 0; i < ns && d.err == nil; i++ {
		s := int(d.u32())
		if slices.Contains(r.shards, s) {
			d.fail("shard %d listed twice", s)
		}
		r.shards = append(r.shards, s)
	}
	nk := d.count(4, "keywords")
	if d.err == nil && (nk == 0 || nk > maxKeywords) {
		d.fail("%d keywords in a postings request", nk)
	}
	r.kws = make([]dict.ID, 0, nk)
	for i := 0; i < nk && d.err == nil; i++ {
		r.kws = append(r.kws, dict.ID(d.u32()))
	}
	return r, d.done()
}

// eventSize is the wire size of one event.
const eventSize = 9

// appendEvents appends one (shard, keyword) block of a postings reply.
func appendEvents(e *enc, evs []index.Event) {
	e.u32(uint32(len(evs)))
	for _, ev := range evs {
		e.u32(uint32(ev.Frag))
		e.u32(uint32(ev.Src))
		e.u8(byte(ev.Type))
	}
}

// blockCheck vets the block of one keyword's events a reply carries for a
// shard; a non-nil error rejects the whole reply.
type blockCheck func(shard int, evs []index.Event) error

// decodePostingsReply reads the reply to a request for nKw keywords on
// shards and returns, per keyword, the events of every shard
// concatenated, plus the worker's span (nil when untraced). Every block
// passes check before it is kept; base anchors the span's start times.
func decodePostingsReply(p []byte, shards []int, nKw int, check blockCheck, base time.Time) ([][]index.Event, *obs.Span, error) {
	d := &dec{b: p}
	out := make([][]index.Event, nKw)
	for _, s := range shards {
		for k := 0; k < nKw && d.err == nil; k++ {
			n := d.count(eventSize, "events")
			start := len(out[k])
			out[k] = slices.Grow(out[k], n)
			for i := 0; i < n && d.err == nil; i++ {
				out[k] = append(out[k], index.Event{Frag: graph.NID(d.u32()), Src: graph.NID(d.u32()), Type: index.ConnType(d.u8())})
			}
			if d.err == nil {
				d.err = check(s, out[k][start:])
			}
		}
	}
	var sp *obs.Span
	if d.err == nil && d.off < len(d.b) {
		sp = decodeSpanBlock(d, base)
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return out, sp, nil
}
