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
//	/shard/v1/beginset  install a search, advance ≤ B rounds → one BeginInfo per member shard, then as rounds replies
//	/shard/v1/rounds    advance ≤ B rounds → per executed round, one RoundInfo per member
//	/shard/v1/finalize  re-bound without stepping → one RoundInfo per member
//	/shard/v1/end       release the search's state
//
// plus GET /healthz (readiness), GET /stats and POST /reload on workers.
//
// Frames:
//
//	beginset request   searchID u64 · nShards u32 · shard u32… · spec · traceID u64 · deadlineµs u64 · rounds u32
//	beginset reply     nShards u32 · BeginInfo… · nRounds u32 · RoundInfo… (round-major) · [span block [span block]]
//	rounds request     searchID u64 · from u32 · max u32
//	rounds reply       nRounds u32 · nShards u32 · RoundInfo… (round-major) · [span block]
//	finalize request   searchID u64 · round u32 (end sends the same frame)
//	finalize reply     nShards u32 · RoundInfo… · [span block]
//
// A batch — the one riding on beginset or a rounds call — advances until
// its bound, ending early only at exhaustion or the precision floor (where
// the coordinator finalizes, and finalize needs the worker at exactly the
// consumed round). The coordinator replays every returned round's stop
// decision locally — how rounds are grouped into RPCs never changes an
// answer, and rounds executed past the stop cost worker CPU only. A
// replacement replica catches up on rounds the coordinator already
// consumed elsewhere by being asked for them again: identical FP ops over
// the shared substrate make its state bit-identical to the failed
// replica's. Every request names the round it expects the session to sit
// at; a worker rejects out-of-lockstep ordinals, so a lost or repeated
// frame can never double-step an exploration.
//
// CRC rule: every request and reply frame carries the CRC-32C of its body
// in the X-S3-Frame-Crc header, and the receiver rejects a frame whose
// header is missing or does not match before decoding it — a fault that
// flips bits in transit (or an intermediary that strips the header) is a
// detected transport error and a failover trigger, never a silently
// perturbed float.
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
	"strconv"
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

// maxWorkerBatch caps how many rounds one beginset or rounds call may ask
// for, carry back, and execute: the worker holds the session mutex for the
// whole batch, and a bounded batch keeps reloads and sweeps responsive.
// The decoders reject anything larger, so no frame asks for rounds the
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
// 9: four endpoints, a batch is at most maxWorkerBatch rounds).
const protoVersion = 9

// maxHostShards caps the shard list of one host session; a conforming
// coordinator never exceeds the set's shard count.
const maxHostShards = 256

// frameCRCHeader carries the CRC-32C (Castagnoli) of the frame body, as
// lowercase hex. Mandatory in both directions.
const frameCRCHeader = "X-S3-Frame-Crc"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func frameCRC(b []byte) string {
	return strconv.FormatUint(uint64(crc32.Checksum(b, crcTable)), 16)
}

// checkFrameCRC verifies a frame body against the peer's CRC header. A
// missing header is rejected like a mismatch: every peer of this protocol
// version sends one, so its absence means an intermediary stripped it and
// corruption would otherwise pass unchecked.
func checkFrameCRC(b []byte, header string) error {
	if header == "" {
		return fmt.Errorf("dshard: frame carries no %s header", frameCRCHeader)
	}
	if got := frameCRC(b); got != header {
		return fmt.Errorf("dshard: frame CRC mismatch (got %s, header %s)", got, header)
	}
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

// appendSpanBlock appends a span block to a response frame (no-op on a
// nil span: untraced responses carry none).
func appendSpanBlock(b []byte, root *obs.Span) []byte {
	if root == nil {
		return b
	}
	e := &enc{b: b}
	encodeSpanBlock(e, root)
	return e.b
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
// waiting for an End; rounds is the size of the round batch the worker
// runs right after the begin and returns on the same reply (0: none).
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
		d.fail("batch of %d rounds in beginset (cap %d)", r.rounds, maxWorkerBatch)
	}
	return r, d.done()
}

// appendBeginSetReply carries one BeginInfo per member shard, in the
// request's shard-list order, then the rounds the worker ran on the spot
// (flat, round-major like a rounds reply; possibly none), plus — traced
// sessions only — the begin's span block and then, when rounds ran, the
// batch's.
func appendBeginSetReply(b []byte, infos []core.BeginInfo, flat []core.RoundInfo) []byte {
	e := enc{b: b}
	e.u32(uint32(len(infos)))
	for i := range infos {
		encodeBeginInfoBody(&e, infos[i])
	}
	e.u32(uint32(len(flat) / len(infos)))
	for i := range flat {
		encodeRoundInfoBody(&e, flat[i])
	}
	return e.b
}

func decodeBeginSetReply(b []byte, nShards int, base time.Time) (infos []core.BeginInfo, rows [][]core.RoundInfo, begin, batch *obs.Span, err error) {
	d := &dec{b: b}
	n := int(d.u32())
	if d.err == nil && n != nShards {
		d.fail("beginset reply covers %d shards, session has %d", n, nShards)
	}
	infos = make([]core.BeginInfo, 0, min(n, maxHostShards))
	for i := 0; i < n && d.err == nil; i++ {
		infos = append(infos, decodeBeginInfoBody(d))
	}
	nr := int(d.u32())
	if d.err == nil && nr > maxWorkerBatch {
		d.fail("%d rounds in beginset reply", nr)
	}
	rows = decodeRoundRows(d, nr, nShards)
	begin = decodeTrailingSpan(d, base)
	batch = decodeTrailingSpan(d, base)
	if err := d.done(); err != nil {
		return nil, nil, nil, nil, err
	}
	return infos, rows, begin, batch, nil
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

// roundsRequest asks a worker to advance up to max lockstep rounds,
// starting from round `from` (which must be the next round in lockstep).
// The worker executes fewer only when the exploration is exhausted or hits
// the precision floor inside the batch — but always at least one.
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
		d.fail("batch of %d rounds (cap %d)", r.max, maxWorkerBatch)
	}
	return r, d.done()
}

// appendHostRoundsReply frames flat — per executed round, one RoundInfo
// per member shard (round-major, shard-list order within a round): the
// coordinator replays its per-round, per-shard stop decisions on each
// block, so byte-identity does not depend on how shards were grouped onto
// hosts or rounds into RPCs.
func appendHostRoundsReply(b []byte, flat []core.RoundInfo, nShards int) []byte {
	e := enc{b: b}
	e.u32(uint32(len(flat) / nShards))
	e.u32(uint32(nShards))
	for i := range flat {
		encodeRoundInfoBody(&e, flat[i])
	}
	return e.b
}

// decodeRoundRows reads n round-major rows of nShards RoundInfos each; the
// caller has bounded n.
func decodeRoundRows(d *dec, n, nShards int) [][]core.RoundInfo {
	rows := make([][]core.RoundInfo, 0, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		row := make([]core.RoundInfo, 0, nShards)
		for j := 0; j < nShards && d.err == nil; j++ {
			row = append(row, decodeRoundInfoBody(d))
		}
		rows = append(rows, row)
	}
	return rows
}

func decodeHostRoundsReply(b []byte, nShards int, base time.Time) ([][]core.RoundInfo, *obs.Span, error) {
	d := &dec{b: b}
	n := int(d.u32())
	if d.err == nil && (n == 0 || n > maxWorkerBatch) {
		d.fail("%d rounds in host batched reply", n)
	}
	ns := int(d.u32())
	if d.err == nil && ns != nShards {
		d.fail("host rounds reply covers %d shards, session has %d", ns, nShards)
	}
	rows := decodeRoundRows(d, n, nShards)
	sp := decodeTrailingSpan(d, base)
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return rows, sp, nil
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

// frameBuf is a pooled byte buffer for encoding request/reply frames and
// for reading HTTP bodies: the round hot path builds and consumes every
// frame within one call, so the backing arrays recycle instead of
// pressuring the GC once per round.
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

// readAllFrame reads r to EOF into fb's backing array (growing it as
// needed), returning the body. It is io.ReadAll with a caller-owned
// buffer, so steady-state frame reads allocate nothing.
func readAllFrame(r io.Reader, fb *frameBuf) ([]byte, error) {
	b := fb.b[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		fb.b = b
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
