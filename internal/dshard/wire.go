// Package dshard runs the sharded-search round protocol across
// processes: a compact HTTP/binary transport for core.HostExecutor, the
// worker that serves it, and the scatter/gather coordinator that drives
// searches over worker replicas.
//
// The protocol is deliberately tiny. Workers advance their own proximity
// iterator over the shared substrate (identical floating-point operations
// in identical order across processes), so a round request carries only a
// search id and a round ordinal, and a round response carries each
// shard's local selection (at most k candidates) plus a handful of
// aggregates — the proximity vector never crosses the wire. Distributed
// answers are therefore byte-identical to the in-process sharded engine,
// property-tested in dshard_test.go.
//
// A session covers a LIST of the shards one worker process hosts (one
// member is a single-shard session), served off a single shared proximity
// iterator — one Iterator.Step per round for the whole list. Four
// endpoints drive it, all POST with little-endian
// application/octet-stream bodies:
//
//	/shard/v1/beginset  install a search, stream ≤ B rounds → a begin record, then as a rounds stream
//	/shard/v1/rounds    stream ≤ B rounds → one record per round, then a trailer
//	/shard/v1/finalize  re-bound without stepping → one RoundInfo per member
//	/shard/v1/end       release the search's state
//
// plus GET /healthz (readiness), GET /stats and POST /reload on workers.
//
// Every request and reply body is a sequence of records, each
// `len u32 · CRC-32C(payload) u32 · payload`. Requests and the finalize
// reply are one record; the beginset and rounds replies are streams,
// written as HTTP/1.1 chunks and flushed one round at a time. Payloads:
//
//	beginset request   searchID u64 · nShards u32 · shard u32… · spec · traceID u64 · deadlineµs u64 · rounds u32
//	rounds request     searchID u64 · from u32 · max u32
//	finalize request   searchID u64 · round u32 (end sends the same payload; its reply is empty)
//	finalize reply     nShards u32 · RoundInfo… · [span block]
//	begin record       'B' · nShards u32 · BeginInfo… · [span block]
//	round record       'R' · nShards u32 · RoundInfo… · [span block]
//	trailer            'T' · rounds u32
//
// A stream runs to its bound, ending early only at exhaustion or the
// precision floor (where the coordinator finalizes, and finalize needs the
// worker at exactly the consumed round) or when its request is gone: the
// coordinator hangs up at the round its search stops at, and the worker
// stops stepping. The coordinator replays every round's stop decision
// locally, so how rounds are grouped into streams never changes an
// answer. A replacement replica catches up on rounds the coordinator
// already consumed elsewhere by being asked for them again: identical FP
// ops over the shared substrate make its state bit-identical to the failed
// replica's. Every request names the round it expects the session to sit
// at; a worker rejects out-of-lockstep ordinals, so a lost or repeated
// request can never double-step an exploration.
//
// CRC rule: the receiver checks every record's CRC before decoding it, and
// a stream must end with a trailer counting its rounds — a fault that
// flips bits in transit or cuts a reply short is a detected transport
// error and a failover trigger, never a silently perturbed float.
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
	"sync"
	"time"

	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/obs"
	"s3/internal/score"
)

// Decode limits: a conforming coordinator never exceeds these, and a
// worker must not let a malformed frame size an allocation.
const (
	maxGroups    = 256
	maxGroupLen  = 1 << 20
	maxKept      = 1 << 16
	maxFrameSize = 64 << 20
	maxWireSpans = 512
	maxSpanName  = 256
	maxSpanAttrs = 32
	maxAttrLen   = 1024
)

// maxWorkerBatch caps how many rounds one beginset or rounds stream may
// ask for, carry, and execute: the worker holds the session mutex for the
// whole stream, and a bounded stream keeps reloads and sweeps responsive.
// The decoders reject anything larger, so no request asks for rounds the
// worker would not run.
const maxWorkerBatch = 64

// wire paths.
const (
	pathBeginSet = "/shard/v1/beginset"
	pathRounds   = "/shard/v1/rounds"
	pathFinalize = "/shard/v1/finalize"
	pathEnd      = "/shard/v1/end"
)

// protoVersion is the round-protocol version this build speaks ("proto" in
// worker /healthz); the probe lists a worker on any other unhealthy. It also
// bumps when only the floats in the frames change (7: ascending summation;
// 8: beginset carries the first round batch, its trailing fields are fixed;
// 9: four endpoints, a batch is at most maxWorkerBatch rounds; 10: bodies
// are CRC'd records and replies stream one round at a time).
const protoVersion = 10

// maxHostShards caps the shard list of one host session; a conforming
// coordinator never exceeds the set's shard count.
const maxHostShards = 256

// --- records ---

// recordHeader is a record's length and CRC-32C (Castagnoli) of its payload.
const recordHeader = 8

// Kinds of the records a beginset or rounds stream is made of.
const (
	recBegin   byte = 'B'
	recRound   byte = 'R'
	recTrailer byte = 'T'
)

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

// recordReader reads one body's records into a pooled buffer; a payload is
// valid until the next call (every decoder copies what it keeps).
type recordReader struct {
	r  io.Reader
	fb *frameBuf
}

// next returns the next record's payload. A body that ends where a record
// should start is cut short like one that ends inside a record: every body
// of the protocol says where it ends.
func (rr *recordReader) next() ([]byte, error) {
	var h [recordHeader]byte
	if _, err := io.ReadFull(rr.r, h[:]); err != nil {
		return nil, cutShort(err)
	}
	n := binary.LittleEndian.Uint32(h[:4])
	if n > maxFrameSize {
		return nil, fmt.Errorf("dshard: record of %d bytes (cap %d)", n, maxFrameSize)
	}
	// Grow with what arrives, not with what the header claims: a corrupted
	// length must not size an allocation.
	p := rr.fb.b[:0]
	for len(p) < int(n) {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(int(n)-len(p), max(cap(p), 4096)))
		}
		m, err := rr.r.Read(p[len(p):min(cap(p), int(n))])
		if p = p[:len(p)+m]; err != nil && len(p) < int(n) {
			return nil, cutShort(err)
		}
	}
	rr.fb.b = p
	if got, want := crc32.Checksum(p, crcTable), binary.LittleEndian.Uint32(h[4:]); got != want {
		return nil, fmt.Errorf("dshard: record CRC mismatch (got %08x, header %08x)", got, want)
	}
	return p, nil
}

func cutShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// eof checks that the body ends here.
func (rr *recordReader) eof() error {
	var b [1]byte
	if n, err := rr.r.Read(b[:]); n > 0 || err == nil {
		return fmt.Errorf("dshard: bytes past the last record")
	} else if err != io.EOF {
		return err
	}
	return nil
}

// streamEnds reports whether a worker ends its stream at this round: the
// finalize points, where the coordinator needs the worker at exactly the
// consumed round. Members share the iterator, so any member's block says.
func streamEnds(info core.RoundInfo) bool { return info.Done || info.Tail < 1e-15 }

// roundStream decodes one beginset or rounds reply as the coordinator reads
// it: [begin record] · one round record per round · trailer · end of body.
// left is how many rounds it may still carry; it ends at its cap, at a
// finalize point, or — after a begin nobody on the host matched — with no
// rounds at all.
type roundStream struct {
	rr      recordReader
	nShards int
	left    uint32
	read    uint32
	done    bool // the trailer and the end of the body have been read
}

func (st *roundStream) begin(base time.Time) ([]core.BeginInfo, *obs.Span, error) {
	p, err := st.rr.next()
	if err != nil {
		return nil, nil, err
	}
	infos, sp, err := decodeBeginRecord(p, st.nShards, base)
	if err != nil {
		return nil, nil, err
	}
	if !slices.ContainsFunc(infos, func(i core.BeginInfo) bool { return i.Matched > 0 }) {
		st.left = 0
	}
	if st.left == 0 {
		err = st.end()
	}
	return infos, sp, err
}

func (st *roundStream) round(base time.Time) ([]core.RoundInfo, *obs.Span, error) {
	p, err := st.rr.next()
	if err != nil {
		return nil, nil, err
	}
	row, sp, err := decodeRoundRecord(p, st.nShards, base)
	if err != nil {
		return nil, nil, err
	}
	st.left--
	st.read++
	if st.left == 0 || streamEnds(row[0]) {
		err = st.end()
	}
	return row, sp, err
}

// end reads the trailer, which must count the rounds read, and the end of
// the body.
func (st *roundStream) end() error {
	p, err := st.rr.next()
	if err != nil {
		return err
	}
	d := &dec{b: p}
	d.head(recTrailer, int(st.read))
	if err := d.done(); err != nil {
		return err
	}
	if err := st.rr.eof(); err != nil {
		return err
	}
	st.done = true
	return nil
}

// enc is a little-endian frame builder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, floatBits(v)) }

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

func (d *dec) f64() float64 { return floatFromBits(d.u64()) }

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

// decodeTrailingSpan reads the optional trailing span block of a
// response. Absence (no bytes left) means "untraced".
func decodeTrailingSpan(d *dec, base time.Time) *obs.Span {
	if d.err != nil || d.off == len(d.b) {
		return nil
	}
	return decodeSpanBlock(d, base)
}

// --- beginset ---

// encodeSpecBody / decodeSpecBody read and write one SearchSpec.
func encodeSpecBody(e *enc, spec core.SearchSpec) {
	e.u32(uint32(spec.Seeker))
	e.u32(uint32(spec.K))
	e.f64(spec.Params.Gamma)
	e.f64(spec.Params.Eta)
	e.f64(spec.Epsilon)
	e.u32(uint32(len(spec.Groups)))
	for _, g := range spec.Groups {
		e.u32(uint32(len(g)))
		for _, id := range g {
			e.u32(uint32(id))
		}
	}
}

func decodeSpecBody(d *dec) core.SearchSpec {
	var spec core.SearchSpec
	spec.Seeker = graph.NID(d.u32())
	spec.K = int(d.u32())
	spec.Params = score.Params{Gamma: d.f64(), Eta: d.f64()}
	spec.Epsilon = d.f64()
	ng := int(d.u32())
	if d.err == nil && (ng <= 0 || ng > maxGroups) {
		d.fail("%d keyword groups", ng)
	}
	for gi := 0; gi < ng && d.err == nil; gi++ {
		nk := int(d.u32())
		if d.err == nil && (nk <= 0 || nk > maxGroupLen) {
			d.fail("group of %d keywords", nk)
		}
		g := make([]dict.ID, 0, min(nk, 1024))
		for j := 0; j < nk && d.err == nil; j++ {
			g = append(g, dict.ID(d.u32()))
		}
		spec.Groups = append(spec.Groups, g)
	}
	return spec
}

// encodeBeginInfoBody / decodeBeginInfoBody read and write exactly one
// BeginInfo's bytes — the unit the beginset reply is built from.
func encodeBeginInfoBody(e *enc, info core.BeginInfo) {
	e.u32(uint32(info.Matched))
	e.u32(uint32(len(info.GroupMasses)))
	for _, g := range info.GroupMasses {
		e.u32(uint32(len(g)))
		for _, m := range g {
			e.u32(uint32(m))
		}
	}
}

func decodeBeginInfoBody(d *dec) core.BeginInfo {
	var info core.BeginInfo
	info.Matched = int(d.u32())
	ng := int(d.u32())
	if d.err == nil && ng > maxGroups {
		d.fail("%d mass groups", ng)
	}
	for gi := 0; gi < ng && d.err == nil; gi++ {
		nk := int(d.u32())
		if d.err == nil && nk > maxGroupLen {
			d.fail("mass group of %d", nk)
		}
		g := make([]int32, 0, min(nk, 1024))
		for j := 0; j < nk && d.err == nil; j++ {
			g = append(g, int32(d.u32()))
		}
		info.GroupMasses = append(info.GroupMasses, g)
	}
	return info
}

// beginSetRequest installs one session covering a LIST of the worker's
// hosted shards: the worker serves them all off a single shared proximity
// iterator (core.HostExecutor), and every subsequent rounds/finalize reply
// for the session carries one RoundInfo block per member shard, in list
// order. traceID, when non-zero, asks the worker to record (and return)
// its spans under that trace; deadlineMicros, when non-zero, is the budget
// from arrival after which the worker may abandon the session without
// waiting for an End; rounds caps the round stream the worker runs right
// after the begin, on the same reply (0: none).
type beginSetRequest struct {
	searchID       uint64
	shards         []int
	spec           core.SearchSpec
	traceID        uint64
	deadlineMicros uint64
	rounds         uint32
}

func encodeBeginSetRequest(r beginSetRequest) []byte {
	var e enc
	e.u64(r.searchID)
	e.u32(uint32(len(r.shards)))
	for _, s := range r.shards {
		e.u32(uint32(s))
	}
	encodeSpecBody(&e, r.spec)
	e.u64(r.traceID)
	e.u64(r.deadlineMicros)
	e.u32(r.rounds)
	return e.b
}

func decodeBeginSetRequest(b []byte) (beginSetRequest, error) {
	d := &dec{b: b}
	var r beginSetRequest
	r.searchID = d.u64()
	ns := int(d.u32())
	if d.err == nil && (ns <= 0 || ns > maxHostShards) {
		d.fail("%d shards in beginset", ns)
	}
	seen := make(map[int]struct{}, min(ns, 16))
	for i := 0; i < ns && d.err == nil; i++ {
		s := int(d.u32())
		if _, dup := seen[s]; dup {
			d.fail("shard %d listed twice in beginset", s)
		}
		seen[s] = struct{}{}
		r.shards = append(r.shards, s)
	}
	r.spec = decodeSpecBody(d)
	r.traceID = d.u64()
	r.deadlineMicros = d.u64()
	r.rounds = d.u32()
	if d.err == nil && r.rounds > maxWorkerBatch {
		d.fail("stream of %d rounds in beginset (cap %d)", r.rounds, maxWorkerBatch)
	}
	return r, d.done()
}

// appendBeginRecord frames a beginset stream's first record: one BeginInfo
// per member shard, in the request's shard-list order, plus — traced
// sessions only — the begin's span block.
func appendBeginRecord(b []byte, infos []core.BeginInfo, sp *obs.Span) []byte {
	e, start := openRecord(b)
	e.u8(recBegin)
	e.u32(uint32(len(infos)))
	for i := range infos {
		encodeBeginInfoBody(e, infos[i])
	}
	encodeSpanBlock(e, sp)
	return sealRecord(e, start)
}

// head reads the start of a stream record: its kind and the count that
// follows (the members of a begin or round record, the rounds of a
// trailer), both as the reader expects them.
func (d *dec) head(kind byte, want int) int {
	if k := d.u8(); d.err == nil && k != kind {
		d.fail("record kind %q where %q belongs", k, kind)
	}
	n := int(d.u32())
	if d.err == nil && n != want {
		d.fail("record %q counts %d, want %d", kind, n, want)
	}
	return n
}

// decodeBeginRecord reads a begin record's payload.
func decodeBeginRecord(p []byte, nShards int, base time.Time) ([]core.BeginInfo, *obs.Span, error) {
	d := &dec{b: p}
	n := d.head(recBegin, nShards)
	infos := make([]core.BeginInfo, 0, min(n, maxHostShards))
	for i := 0; i < n && d.err == nil; i++ {
		infos = append(infos, decodeBeginInfoBody(d))
	}
	sp := decodeTrailingSpan(d, base)
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return infos, sp, nil
}

// --- rounds ---

const (
	roundFlagDone      = 1 << 0
	roundFlagUncertain = 1 << 1
)

// encodeRoundInfoBody / decodeRoundInfoBody read and write exactly one
// RoundInfo's bytes — the unit the rounds and finalize replies are built
// from.
func encodeRoundInfoBody(e *enc, info core.RoundInfo) {
	var flags byte
	if info.Done {
		flags |= roundFlagDone
	}
	if info.Uncertain != nil {
		flags |= roundFlagUncertain
	}
	e.u8(flags)
	e.u32(uint32(info.N))
	e.u32(uint32(info.Reached))
	e.u32(uint32(info.Admitted))
	e.u32(uint32(info.Candidates))
	e.f64(info.Tail)
	e.f64(info.SourceTail)
	e.f64(info.MaxOther)
	e.u32(uint32(len(info.Kept)))
	for _, c := range info.Kept {
		e.u32(uint32(c.Doc))
		e.f64(c.Lower)
		e.f64(c.Upper)
	}
	if info.Uncertain != nil {
		e.u32(uint32(info.Uncertain.Doc))
		e.f64(info.Uncertain.Lower)
		e.f64(info.Uncertain.Upper)
	}
}

func decodeRoundInfoBody(d *dec) core.RoundInfo {
	var info core.RoundInfo
	flags := d.u8()
	info.Done = flags&roundFlagDone != 0
	info.N = int(d.u32())
	info.Reached = int(d.u32())
	info.Admitted = int(d.u32())
	info.Candidates = int(d.u32())
	info.Tail = d.f64()
	info.SourceTail = d.f64()
	info.MaxOther = d.f64()
	nk := int(d.u32())
	if d.err == nil && nk > maxKept {
		d.fail("%d kept candidates", nk)
	}
	for i := 0; i < nk && d.err == nil; i++ {
		info.Kept = append(info.Kept, core.CandMeta{Doc: graph.NID(d.u32()), Lower: d.f64(), Upper: d.f64()})
	}
	if flags&roundFlagUncertain != 0 {
		info.Uncertain = &core.CandMeta{Doc: graph.NID(d.u32()), Lower: d.f64(), Upper: d.f64()}
	}
	return info
}

// roundsRequest asks a worker to stream up to max lockstep rounds,
// starting from round `from` (which must be the next round in lockstep).
// The worker streams fewer only when the exploration is exhausted or hits
// the precision floor, or when the coordinator hangs up.
type roundsRequest struct {
	searchID uint64
	from     uint32
	max      uint32
}

func appendRoundsRequest(b []byte, r roundsRequest) []byte {
	e := enc{b: b}
	e.u64(r.searchID)
	e.u32(r.from)
	e.u32(r.max)
	return e.b
}

func decodeRoundsRequest(b []byte) (roundsRequest, error) {
	d := &dec{b: b}
	r := roundsRequest{searchID: d.u64(), from: d.u32(), max: d.u32()}
	if d.err == nil && (r.max == 0 || r.max > maxWorkerBatch) {
		d.fail("stream of %d rounds (cap %d)", r.max, maxWorkerBatch)
	}
	return r, d.done()
}

// appendRoundRecord frames one streamed round: a RoundInfo per member
// shard, in shard-list order, plus — traced sessions only — the round's
// span block. The coordinator replays its per-round, per-shard stop
// decisions on each record, so byte-identity does not depend on how shards
// were grouped onto hosts or rounds into streams.
func appendRoundRecord(b []byte, infos []core.RoundInfo, sp *obs.Span) []byte {
	e, start := openRecord(b)
	e.u8(recRound)
	e.u32(uint32(len(infos)))
	for i := range infos {
		encodeRoundInfoBody(e, infos[i])
	}
	encodeSpanBlock(e, sp)
	return sealRecord(e, start)
}

// decodeRoundRecord reads a round record's payload.
func decodeRoundRecord(p []byte, nShards int, base time.Time) ([]core.RoundInfo, *obs.Span, error) {
	d := &dec{b: p}
	ns := d.head(recRound, nShards)
	row := make([]core.RoundInfo, 0, min(ns, maxHostShards))
	for j := 0; j < ns && d.err == nil; j++ {
		row = append(row, decodeRoundInfoBody(d))
	}
	sp := decodeTrailingSpan(d, base)
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return row, sp, nil
}

// appendTrailer frames the record that ends a stream of n rounds.
func appendTrailer(b []byte, n int) []byte {
	e, start := openRecord(b)
	e.u8(recTrailer)
	e.u32(uint32(n))
	return sealRecord(e, start)
}

// --- finalize / end ---

// roundRequest names a search and the round the coordinator has consumed
// up to — the finalize and end request frame. The worker re-bounds (or
// releases) the session as it stands; it never steps.
type roundRequest struct {
	searchID uint64
	round    uint32
}

func encodeRoundRequest(r roundRequest) []byte {
	var e enc
	e.u64(r.searchID)
	e.u32(r.round)
	return e.b
}

func decodeRoundRequest(b []byte) (roundRequest, error) {
	d := &dec{b: b}
	r := roundRequest{searchID: d.u64(), round: d.u32()}
	return r, d.done()
}

// appendHostInfosReply carries one RoundInfo per member shard — the
// finalize reply.
func appendHostInfosReply(b []byte, infos []core.RoundInfo) []byte {
	e := enc{b: b}
	e.u32(uint32(len(infos)))
	for i := range infos {
		encodeRoundInfoBody(&e, infos[i])
	}
	return e.b
}

func decodeHostInfosReply(b []byte, nShards int, base time.Time) ([]core.RoundInfo, *obs.Span, error) {
	d := &dec{b: b}
	n := int(d.u32())
	if d.err == nil && n != nShards {
		d.fail("host reply covers %d shards, session has %d", n, nShards)
	}
	infos := make([]core.RoundInfo, 0, min(n, maxHostShards))
	for i := 0; i < n && d.err == nil; i++ {
		infos = append(infos, decodeRoundInfoBody(d))
	}
	sp := decodeTrailingSpan(d, base)
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return infos, sp, nil
}

// floatBits / floatFromBits round-trip float64s through their exact bit
// patterns: the transport must not perturb a single ULP, or the
// byte-identity guarantee (and the coordinator's merge order) breaks.
func floatBits(v float64) uint64 { return math.Float64bits(v) }

func floatFromBits(v uint64) float64 { return math.Float64frombits(v) }

// --- frame buffer pool ---

// frameBuf is a pooled byte buffer for encoding records and for reading
// HTTP bodies: the round hot path builds and consumes every record within
// one call, so the backing arrays recycle instead of pressuring the GC
// once per round.
type frameBuf struct{ b []byte }

// maxPooledFrame bounds what a returned buffer may retain: a frame that
// ballooned past it (a giant traced reply, say) is dropped rather than
// pinned in the pool forever.
const maxPooledFrame = 1 << 20

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrame(f *frameBuf) {
	if f == nil || cap(f.b) > maxPooledFrame {
		return
	}
	f.b = f.b[:0]
	framePool.Put(f)
}
