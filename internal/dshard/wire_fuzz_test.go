package dshard

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/snap"
	"s3/internal/text"
)

func sampleSpan() *obs.Span {
	root := obs.NewSpan("exec.round")
	child := obs.NewSpan("exec.round")
	child.SetInt("shard", 1)
	child.End()
	root.Attach(child)
	root.End()
	return root
}

// wireFixture is a live 2-shard set's substrate, a request for three of
// its keywords on both shards, and the reply payload a worker hosting
// both would send (span block included): the shapes the corruption tests
// and fuzz targets start from.
type wireFixture struct {
	sub     *substrate
	ix      *index.Index
	req     postingsRequest
	reply   []byte
	spanLen int
}

var (
	fixtureOnce sync.Once
	fixture     wireFixture
)

func loadWireFixture() *wireFixture {
	fixtureOnce.Do(func() {
		in, err := graph.BuildSpec(smallSpec(), text.Analyzer{Lang: text.None})
		if err != nil {
			panic(err)
		}
		parts, err := graph.PartitionComponents(in, 2)
		if err != nil {
			panic(err)
		}
		owner, err := graph.ComponentOwners(in.NumComponents(), parts)
		if err != nil {
			panic(err)
		}
		fixture.sub = newSubstrate(in, &snap.Layout{Shards: []snap.ShardDesc{{Comps: parts[0]}, {Comps: parts[1]}}, Owner: owner})
		fixture.ix = index.Build(in)
		kws := in.SortedKeywordsByFrequency()
		fixture.req = postingsRequest{traceID: 7, shards: []int{0, 1}, kws: []dict.ID{kws[len(kws)/4], kws[len(kws)/2], kws[len(kws)-1]}}
		slices.Sort(fixture.req.kws)
		e := &enc{}
		appendShardBlocks(e, fixture.ix, fixture.sub, fixture.req.shards, fixture.req.kws)
		n := len(e.b)
		encodeSpanBlock(e, sampleSpan())
		fixture.reply, fixture.spanLen = e.b, len(e.b)-n
	})
	return &fixture
}

// appendShardBlocks appends the blocks a worker hosting shards sends for
// kws, from the whole instance's index split by the layout.
func appendShardBlocks(e *enc, ix *index.Index, sub *substrate, shards []int, kws []dict.ID) {
	for _, s := range shards {
		for _, k := range kws {
			var evs []index.Event
			for _, ev := range ix.Events(k) {
				if sub.owner[sub.eng.Instance().CompOf(ev.Frag)] == int32(s) {
					evs = append(evs, ev)
				}
			}
			appendEvents(e, evs)
		}
	}
}

// replyErr decodes a reply payload to a request for the fixture's keywords
// on shards the way the coordinator does, every event checked against the
// fixture's substrate.
func replyErr(p []byte, shards []int) error {
	fx := loadWireFixture()
	_, _, err := decodePostingsReply(p, shards, len(fx.req.kws), fx.sub.check, time.Unix(0, 0))
	return err
}

// replyBodyErr is replyErr for a whole reply body to the fixture's
// request, record framing included.
func replyBodyErr(body []byte) error {
	p, err := readBody(bytes.NewReader(body))
	if err != nil {
		return err
	}
	return replyErr(p, loadWireFixture().req.shards)
}

func checkRequest(t *testing.T, b []byte) error {
	r, err := decodePostingsRequest(b)
	if err == nil && (len(r.shards) == 0 || len(r.shards) > maxHostShards || len(r.kws) == 0 || len(r.kws) > maxKeywords) {
		t.Fatalf("decoded %d shards and %d keywords without error", len(r.shards), len(r.kws))
	}
	return err
}

// framed is check behind the record framing: the whole body a peer reads.
func framed(check func(t *testing.T, p []byte) error) func(t *testing.T, b []byte) error {
	return func(t *testing.T, b []byte) error {
		p, err := readBody(bytes.NewReader(b))
		if err != nil {
			return err
		}
		return check(t, p)
	}
}

// wireDecoder is one decoder of the protocol with a pristine frame for it.
// check decodes b and fails the test if a frame that decoded WITHOUT error
// violates the decoder's own caps or contract; optionalTail is how many
// trailing bytes of frame are optional (span blocks), where a truncation
// may legitimately yield a valid shorter frame.
type wireDecoder struct {
	name         string
	frame        []byte
	optionalTail int
	check        func(t *testing.T, b []byte) error
}

// wireDecoders lists the frames the corruption storm and the fuzz targets
// start from. The postings-, record- and span- entries are the fixture's exchange as
// it crosses the wire. The beginset-, rounds- and finalize- entries keep
// the names of the round-protocol exchanges (proto 10 and before) whose
// fuzz targets now drive them, and carry the shapes the fixture's exchange
// does not take: the request record as a worker reads it, the smallest
// request, a request at the shard cap, a one-shard reply record, an
// untraced reply (no optional tail, so every cut must fail) and a reply
// of empty blocks.
func wireDecoders() []wireDecoder {
	fx := loadWireFixture()
	var span enc
	encodeSpanBlock(&span, sampleSpan())
	replyFor := func(shards []int) func(*testing.T, []byte) error {
		return func(_ *testing.T, b []byte) error { return replyErr(b, shards) }
	}
	smallest := postingsRequest{shards: []int{1}, kws: fx.req.kws[:1]}
	atCap := postingsRequest{traceID: fx.req.traceID, kws: fx.req.kws}
	for s := range maxHostShards {
		atCap.shards = append(atCap.shards, s)
	}
	oneShard := &enc{}
	appendShardBlocks(oneShard, fx.ix, fx.sub, []int{1}, fx.req.kws)
	empty := &enc{}
	for range len(fx.req.shards) * len(fx.req.kws) {
		appendEvents(empty, nil)
	}
	blocks := len(empty.b)
	encodeSpanBlock(empty, sampleSpan())
	return []wireDecoder{
		{name: "postings-request", frame: appendPostingsRequest(nil, fx.req), check: checkRequest},
		{name: "postings-reply", frame: fx.reply, optionalTail: fx.spanLen, check: replyFor(fx.req.shards)},
		{name: "record-stream", frame: appendRecord(nil, fx.reply), check: framed(replyFor(fx.req.shards))},
		{name: "beginset-request", frame: appendRecord(nil, appendPostingsRequest(nil, fx.req)), check: framed(checkRequest)},
		{name: "rounds-request", frame: appendPostingsRequest(nil, smallest), check: checkRequest},
		{name: "finalize-request", frame: appendPostingsRequest(nil, atCap), check: checkRequest},
		{name: "beginset-reply", frame: appendRecord(nil, oneShard.b), check: framed(replyFor([]int{1}))},
		{name: "rounds-reply", frame: fx.reply[:len(fx.reply)-fx.spanLen], check: replyFor(fx.req.shards)},
		{name: "finalize-reply", frame: empty.b, optionalTail: len(empty.b) - blocks, check: replyFor(fx.req.shards)},
		{
			name:  "span-block",
			frame: span.b,
			check: func(t *testing.T, b []byte) error {
				d := &dec{b: b}
				root := decodeSpanBlock(d, time.Unix(0, 0))
				if err := d.done(); err != nil {
					return err
				}
				n := 0
				var walk func(sp *obs.Span)
				walk = func(sp *obs.Span) {
					if sp == nil {
						return
					}
					n++
					for _, c := range sp.Children {
						walk(c)
					}
				}
				walk(root)
				if n > maxWireSpans {
					t.Fatalf("decoded %d spans past the cap", n)
				}
				return nil
			},
		},
	}
}

// TestWireCorruption drives every decoder of the protocol through every
// truncation point and a deterministic storm of random bit flips: a
// corrupted frame must either decode (flips inside ids or list bodies can
// be shape-preserving) or fail with an error — never panic, hang, or size
// an allocation past the decode caps. This is the tolerance a peer relies
// on when the other end (or the network) misbehaves and the CRC happens to
// agree.
func TestWireCorruption(t *testing.T) {
	for _, wd := range wireDecoders() {
		t.Run(wd.name, func(t *testing.T) {
			if err := wd.check(t, wd.frame); err != nil {
				t.Fatalf("pristine frame rejected: %v", err)
			}
			// Outside the optional tail the frame has no optional interior,
			// so every strict prefix must be rejected; inside it, survival
			// plus the decoder's invariants is the assertion.
			for cut := 0; cut < len(wd.frame); cut++ {
				err := wd.check(t, wd.frame[:cut])
				if err == nil && cut < len(wd.frame)-wd.optionalTail {
					t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(wd.frame))
				}
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20000; trial++ {
				mut := append([]byte(nil), wd.frame...)
				for flips := 1 + rng.Intn(4); flips > 0; flips-- {
					i := rng.Intn(len(mut))
					mut[i] ^= 1 << uint(rng.Intn(8))
				}
				_ = wd.check(t, mut)
			}
		})
	}
}

// flipBit returns body with one bit flipped.
func flipBit(body []byte, bit uint32) []byte {
	mut := bytes.Clone(body)
	k := bit % uint32(8*len(mut))
	mut[k/8] ^= 1 << (k % 8)
	return mut
}

// reseal frames payload as a record whose CRC describes it: corruption
// that a worker, not the network, introduced.
func reseal(payload []byte) []byte { return appendRecord(nil, payload) }

// FuzzDecodePostingsRequest drives the worker's request decoding — record,
// then payload — with arbitrary bytes (never a panic or a decoded request
// past the caps) and with the pristine request under one flipped bit (an
// error, always). Seeds: pristine, truncated, an oversized shard count, a
// flipped CRC.
func FuzzDecodePostingsRequest(f *testing.F) {
	pristine := appendRecord(nil, appendPostingsRequest(nil, loadWireFixture().req))
	oversized := bytes.Clone(pristine[recordHeader:])
	binary.LittleEndian.PutUint32(oversized[8:], 1<<30)
	crcFlipped := bytes.Clone(pristine)
	crcFlipped[5] ^= 0x20
	for i, b := range [][]byte{pristine, pristine[:len(pristine)/2], reseal(oversized), crcFlipped} {
		f.Add(b, uint32(i*977))
	}
	decode := framed(checkRequest)
	f.Fuzz(func(t *testing.T, b []byte, bit uint32) {
		_ = decode(t, b)
		if decode(t, flipBit(pristine, bit)) == nil {
			t.Fatalf("bit %d flipped: the request decoded without error", bit%uint32(8*len(pristine)))
		}
	})
}

// FuzzDecodePostingsReply drives the coordinator's reply decoding — record,
// payload and the substrate check of every event — with arbitrary bytes
// (never a panic or a reply of the wrong shape) and with the pristine reply
// under one flipped bit (an error, always: no flipped bit becomes an
// event). Seeds: pristine, truncated, an oversized event count, a flipped
// CRC, an event outside the instance, and blocks answering for the wrong
// shards — the last two CRC-valid, as a faulty worker would send them.
func FuzzDecodePostingsReply(f *testing.F) {
	fx := loadWireFixture()
	pristine := appendRecord(nil, fx.reply)
	oversized := bytes.Clone(fx.reply)
	binary.LittleEndian.PutUint32(oversized, 1<<30)
	crcFlipped := bytes.Clone(pristine)
	crcFlipped[5] ^= 0x20
	// Point the first event of the reply past the last node.
	outside := bytes.Clone(fx.reply)
	off := 0
	for binary.LittleEndian.Uint32(outside[off:]) == 0 {
		off += 4
	}
	binary.LittleEndian.PutUint32(outside[off+4:], uint32(fx.sub.eng.Instance().NumNodes()))
	swapped := &enc{}
	appendShardBlocks(swapped, fx.ix, fx.sub, []int{1, 0}, fx.req.kws)
	for i, b := range [][]byte{pristine, pristine[:len(pristine)/2], reseal(oversized), crcFlipped, reseal(outside), reseal(swapped.b)} {
		if (i == 0) != (replyBodyErr(b) == nil) {
			f.Fatalf("seed %d: decode error %v", i, replyBodyErr(b))
		}
		f.Add(b, uint32(i*977))
	}
	f.Fuzz(func(t *testing.T, b []byte, bit uint32) {
		_ = replyBodyErr(b)
		if replyBodyErr(flipBit(pristine, bit)) == nil {
			t.Fatalf("bit %d flipped: the reply decoded without error", bit%uint32(8*len(pristine)))
		}
	})
}

// FuzzDecodeRecordStream drives the record framing every body travels in
// with arbitrary bytes — a body decodes only if it is exactly one record
// of the payload it yields — and with the fixture's reply record under one
// flipped bit (an error, always). Seeds: pristine, truncated, a length
// over the frame cap, a flipped CRC, a byte past the record, empty.
func FuzzDecodeRecordStream(f *testing.F) {
	pristine := appendRecord(nil, loadWireFixture().reply)
	overCap := bytes.Clone(pristine)
	binary.LittleEndian.PutUint32(overCap, maxFrameSize+1)
	crcFlipped := bytes.Clone(pristine)
	crcFlipped[5] ^= 0x20
	for i, b := range [][]byte{pristine, pristine[:len(pristine)/2], overCap, crcFlipped, append(bytes.Clone(pristine), 0), {}} {
		f.Add(b, uint32(i*977))
	}
	f.Fuzz(func(t *testing.T, b []byte, bit uint32) {
		if p, err := readBody(bytes.NewReader(b)); err == nil && !bytes.Equal(appendRecord(nil, p), b) {
			t.Fatalf("a %d-byte body decoded to a %d-byte payload it is not the record of", len(b), len(p))
		}
		if _, err := readBody(bytes.NewReader(flipBit(pristine, bit))); err == nil {
			t.Fatalf("bit %d flipped: the record decoded without error", bit%uint32(8*len(pristine)))
		}
	})
}

// fuzzWire lets `go test -fuzz` explore one decoder of wireDecoders beyond
// the deterministic storm; in normal test runs the target replays its seed
// corpus (the pristine frame plus shape-probing mutants) as plain subtests.
func fuzzWire(f *testing.F, name string) {
	for _, wd := range wireDecoders() {
		if wd.name != name {
			continue
		}
		f.Add(wd.frame)
		f.Add([]byte{})
		f.Add([]byte{0xff, 0xff, 0xff, 0xff})
		f.Fuzz(func(t *testing.T, b []byte) { _ = wd.check(t, b) })
		return
	}
	f.Fatalf("no wire decoder named %q", name)
}

func FuzzDecodeBeginSetRequest(f *testing.F) { fuzzWire(f, "beginset-request") }
func FuzzDecodeBeginSetReply(f *testing.F)   { fuzzWire(f, "beginset-reply") }
func FuzzDecodeRoundsRequest(f *testing.F)   { fuzzWire(f, "rounds-request") }
func FuzzDecodeHostRoundsReply(f *testing.F) { fuzzWire(f, "rounds-reply") }
func FuzzDecodeRoundRequest(f *testing.F)    { fuzzWire(f, "finalize-request") }
func FuzzDecodeHostInfosReply(f *testing.F)  { fuzzWire(f, "finalize-reply") }
func FuzzDecodeSpanBlock(f *testing.F)       { fuzzWire(f, "span-block") }
