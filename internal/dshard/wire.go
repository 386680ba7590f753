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
// query's keywords on the shards it picked there, merges the replies into
// an index over the substrate (index.Merge) and runs S3k over it in
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
//	reply    per requested shard, per requested keyword: n u32 · event×n
//	         · [busy µs u64]
//	event    uvarint(zigzag(Δfrag)·3 + type) · uvarint(zigzag(Δsrc))  when (frag, type) repeats
//	         uvarint(zigzag(Δfrag)·3 + type) · uvarint(src+1)          otherwise
//
// A shard's events for a keyword are its index.Events, in canonical order.
// Each event is written against the one before it in its block (the
// first against the zero event): the fragment as a delta, the source as a
// delta only after an event of the same fragment and type, and otherwise
// offset by one, so a Contains event's source, −1, is 0: a common
// keyword's events take ≈ 2.3 bytes each, so a reply leaves in fewer
// link writes.
// The coordinator decodes each shard's blocks into that shard's
// index.Flat, the form its shard file stores, and merges the shards'
// postings by component as an in-process shard set does: no sort. A
// traced request's reply ends with the worker's handling time in
// microseconds, from which the coordinator builds the worker.postings
// span of its trace (postingsSpan); an untraced reply has no tail.
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
	"math"
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
	// maxReplyEvents caps the events of one postings reply at what a
	// frame of 9-byte events could hold, so the decoder's worst case
	// stays ≈ 85 MiB of index.Event however small varints make an event.
	maxReplyEvents = maxFrameSize / 9
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
// explores; 12: varint events; 13: a traced reply ends with the worker's
// handling time instead of a span tree).
const protoVersion = 13

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

// varintErr fails the frame for binary.Uvarint's length n ≤ 0.
func (d *dec) varintErr(n int) {
	if n == 0 {
		d.fail("truncated frame")
	} else {
		d.fail("varint overflows 64 bits")
	}
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

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("dshard: %d trailing bytes in frame", len(d.b)-d.off)
	}
	return nil
}

// --- postings ---

// postingsRequest asks a worker for the events of kws on a list of its
// hosted shards. traceID, when non-zero, asks the worker to record the
// request in its trace ring and to end its reply with its handling time.
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

// minEventSize is the fewest bytes an event takes on the wire: two
// one-byte varints.
const minEventSize = 2

// zigzag maps a signed delta to an unsigned varint value, small for
// small magnitudes of either sign; unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendEvents appends one (shard, keyword) block of a postings reply:
// its event count, then each event against the one before it. Events are
// index.Events as a file stores them: Type a ConnType, Frag and Src node
// ids, Src at least NoNID.
func appendEvents(e *enc, evs []index.Event) {
	b := binary.LittleEndian.AppendUint32(e.b, uint32(len(evs)))
	var prev index.Event
	for i, ev := range evs {
		b = binary.AppendUvarint(b, zigzag(int64(ev.Frag)-int64(prev.Frag))*3+uint64(ev.Type))
		if i > 0 && ev.Frag == prev.Frag && ev.Type == prev.Type {
			b = binary.AppendUvarint(b, zigzag(int64(ev.Src)-int64(prev.Src)))
		} else {
			b = binary.AppendUvarint(b, uint64(int64(ev.Src)+1))
		}
		prev = ev
	}
	e.b = b
}

// events appends a block's n events to evs, the inverse of appendEvents.
// A node id outside [NoNID, MaxInt32] fails the frame.
func (d *dec) events(evs []index.Event, n int) []index.Event {
	b := d.b[d.off:]
	var prev index.Event
	for i := 0; i < n; i++ {
		h, m := binary.Uvarint(b)
		if m <= 0 {
			d.varintErr(m)
			return evs
		}
		v, l := binary.Uvarint(b[m:])
		if l <= 0 {
			d.varintErr(l)
			return evs
		}
		b = b[m+l:]
		ev := index.Event{Type: index.ConnType(h % 3)}
		frag := int64(prev.Frag) + unzigzag(h/3)
		var src int64
		if i > 0 && frag == int64(prev.Frag) && ev.Type == prev.Type {
			src = int64(prev.Src) + unzigzag(v)
		} else {
			src = int64(min(v, math.MaxInt32+2)) - 1 // capped below int64's wrap, still out of range
		}
		if frag < int64(graph.NoNID) || frag > math.MaxInt32 || src < int64(graph.NoNID) || src > math.MaxInt32 {
			d.fail("event (%d, %d) names a node id out of range", frag, src)
			return evs
		}
		ev.Frag, ev.Src = graph.NID(frag), graph.NID(src)
		evs = append(evs, ev)
		prev = ev
	}
	d.off = len(d.b) - len(b)
	return evs
}

// blockCheck vets the block of one keyword's events a reply carries for a
// shard; a non-nil error rejects the whole reply.
type blockCheck func(shard int, evs []index.Event) error

// busyLen is the length of a traced reply's tail: the worker's handling
// time, u64 microseconds.
const busyLen = 8

// postingsSpan is the worker.postings span of a traced postings request:
// the worker files it in its trace ring, and the coordinator builds the
// same span from the handling time the reply ends with.
func postingsSpan(start time.Time, busy time.Duration, shards []int, kws, events int) *obs.Span {
	sp := &obs.Span{Name: "worker.postings", Start: start, Dur: busy}
	sp.SetAttr("shards", fmt.Sprint(shards))
	sp.SetInt("keywords", int64(kws))
	sp.SetInt("events", int64(events))
	return sp
}

// decodePostingsReply reads the reply to a request for kws (ascending) on
// shards and returns, per requested shard, its blocks as one index.Flat of
// the keywords it has events for. Every block passes check before it is
// kept. After the blocks a reply has no tail, or exactly the worker's
// handling time (a traced reply), which returns its postingsSpan starting
// at base, the moment the request left: worker and coordinator clocks are
// not comparable. Any other tail fails the reply.
func decodePostingsReply(p []byte, shards []int, kws []dict.ID, check blockCheck, base time.Time) ([]index.Flat, *obs.Span, error) {
	d := &dec{b: p}
	out := make([]index.Flat, len(shards))
	total := 0
	for j, s := range shards {
		f := &out[j]
		f.EvOff = []int64{0}
		for k := 0; k < len(kws) && d.err == nil; k++ {
			n := d.count(minEventSize, "events")
			if d.err == nil && n > maxReplyEvents-total {
				d.fail("%d events in one reply (cap %d)", total+n, maxReplyEvents)
				break
			}
			total += n
			start := len(f.Evs)
			f.Evs = d.events(slices.Grow(f.Evs, n), n)
			if d.err == nil {
				d.err = check(s, f.Evs[start:])
			}
			if len(f.Evs) > start {
				f.Kws = append(f.Kws, kws[k])
				f.EvOff = append(f.EvOff, int64(len(f.Evs)))
			}
		}
	}
	var sp *obs.Span
	if d.err == nil && len(d.b)-d.off == busyLen {
		sp = postingsSpan(base, time.Duration(d.u64())*time.Microsecond, shards, len(kws), total)
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return out, sp, nil
}
