package dshard

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/obs"
	"s3/internal/score"
)

// sampleRoundInfos builds a representative stream's rounds: three rounds
// of a two-member session (round-major, the last one Done), kept lists of
// varying length, an uncertain candidate, non-trivial float bounds.
func sampleRoundInfos() []core.RoundInfo {
	return []core.RoundInfo{
		{
			N: 3, Reached: 120, Admitted: 4, Candidates: 9,
			Tail: 0.25, SourceTail: 0.125, MaxOther: 0.75,
			Kept: []core.CandMeta{
				{Doc: 11, Lower: 0.5, Upper: 0.9},
				{Doc: 7, Lower: 0.4, Upper: 0.8},
			},
			Uncertain: &core.CandMeta{Doc: 42, Lower: 0.3, Upper: 0.85},
		},
		{N: 3, Reached: 120, Tail: 0.25, SourceTail: 0.125},
		{
			N: 4, Reached: 180, Admitted: 4, Candidates: 9,
			Tail: 0.125, SourceTail: 0.0625, MaxOther: 0.6,
			Kept: []core.CandMeta{{Doc: 11, Lower: 0.55, Upper: 0.82}},
		},
		{
			N: 4, Reached: 180, Admitted: 1, Candidates: 2,
			Tail: 0.125, SourceTail: 0.0625,
			Kept: []core.CandMeta{{Doc: 90, Lower: 0.1, Upper: 0.2}},
		},
		{
			N: 5, Reached: 240, Admitted: 5, Candidates: 11,
			Tail: 0.0625, SourceTail: 0.03125, MaxOther: 0.5,
			Done: true,
		},
		{N: 5, Reached: 240, Admitted: 1, Candidates: 2, Tail: 0.0625, SourceTail: 0.03125, Done: true},
	}
}

func sampleSpan() *obs.Span {
	root := obs.NewSpan("exec.round")
	child := obs.NewSpan("exec.round")
	child.SetInt("shard", 1)
	child.End()
	root.Attach(child)
	root.End()
	return root
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

func wireDecoders() []wireDecoder {
	const ns = 2
	base := time.Unix(0, 0)
	var span enc
	encodeSpanBlock(&span, sampleSpan())
	spec := core.SearchSpec{
		Seeker:  graph.NID(17),
		Groups:  [][]dict.ID{{1, 2, 3}, {9}, {4, 5}},
		K:       5,
		Params:  score.Params{Gamma: 1.5, Eta: 0.8},
		Epsilon: 1e-12,
	}
	begins := []core.BeginInfo{{Matched: 3, GroupMasses: [][]int32{{5, 0, 7}, {2}, {1, 1}}}, {GroupMasses: [][]int32{{0, 0, 0}, {0}, {0, 0}}}}
	flat := sampleRoundInfos()
	return []wireDecoder{
		{
			name: "beginset-request",
			frame: encodeBeginSetRequest(beginSetRequest{searchID: 99, shards: []int{0, 2}, spec: spec,
				traceID: 0xdeadbeef, deadlineMicros: 1_000_000, rounds: 16}),
			check: func(t *testing.T, b []byte) error {
				r, err := decodeBeginSetRequest(b)
				if err == nil {
					if r.rounds > maxWorkerBatch {
						t.Fatalf("decoded a first stream of %d rounds without error", r.rounds)
					}
					if len(r.shards) == 0 || len(r.shards) > maxHostShards {
						t.Fatalf("decoded %d shards without error", len(r.shards))
					}
					if len(r.spec.Groups) == 0 || len(r.spec.Groups) > maxGroups {
						t.Fatalf("decoded %d keyword groups without error", len(r.spec.Groups))
					}
					for _, g := range r.spec.Groups {
						if len(g) == 0 || len(g) > maxGroupLen {
							t.Fatalf("decoded a group of %d ids without error", len(g))
						}
					}
				}
				return err
			},
		},
		{
			name:         "beginset-reply",
			frame:        appendBeginRecord(nil, begins, sampleSpan())[recordHeader:],
			optionalTail: len(span.b),
			check: func(t *testing.T, b []byte) error {
				infos, _, err := decodeBeginRecord(b, ns, base)
				if err == nil && len(infos) != ns {
					t.Fatalf("decoded %d begin infos for a %d-member session without error", len(infos), ns)
				}
				return err
			},
		},
		{
			name:  "record-stream",
			frame: encodeStream(ns, begins, flat),
			check: func(t *testing.T, b []byte) error {
				_, rows, err := decodeStream(b, ns, streamFuzzCap, true)
				if len(rows) > streamFuzzCap {
					t.Fatalf("decoded %d rounds past a %d-round cap", len(rows), streamFuzzCap)
				}
				for _, row := range rows {
					if len(row) != ns {
						t.Fatalf("decoded a row of %d blocks for a %d-member session", len(row), ns)
					}
				}
				return err
			},
		},
		{
			name:  "rounds-request",
			frame: appendRoundsRequest(nil, roundsRequest{searchID: 5, from: 3, max: 16}),
			check: func(t *testing.T, b []byte) error {
				r, err := decodeRoundsRequest(b)
				if err == nil && (r.max == 0 || r.max > maxWorkerBatch) {
					t.Fatalf("decoded a batch of %d rounds without error", r.max)
				}
				return err
			},
		},
		{
			name:         "rounds-reply",
			frame:        appendRoundRecord(nil, flat[:ns], sampleSpan())[recordHeader:],
			optionalTail: len(span.b),
			check: func(t *testing.T, b []byte) error {
				row, _, err := decodeRoundRecord(b, ns, base)
				if err == nil {
					if len(row) != ns {
						t.Fatalf("decoded a row of %d blocks for a %d-member session", len(row), ns)
					}
					for _, info := range row {
						if len(info.Kept) > maxKept {
							t.Fatalf("decoded %d kept candidates past the cap", len(info.Kept))
						}
					}
				}
				return err
			},
		},
		{
			name:  "finalize-request",
			frame: encodeRoundRequest(roundRequest{searchID: 8, round: 21}),
			check: func(t *testing.T, b []byte) error {
				_, err := decodeRoundRequest(b)
				return err
			},
		},
		{
			name:         "finalize-reply",
			frame:        append(appendHostInfosReply(nil, flat[:ns]), span.b...),
			optionalTail: len(span.b),
			check: func(t *testing.T, b []byte) error {
				infos, _, err := decodeHostInfosReply(b, ns, base)
				if err == nil && len(infos) != ns {
					t.Fatalf("decoded %d infos for a %d-member session without error", len(infos), ns)
				}
				return err
			},
		},
		{
			name:  "span-block",
			frame: span.b,
			check: func(t *testing.T, b []byte) error {
				d := &dec{b: b}
				root := decodeSpanBlock(d, base)
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
// corrupted frame must either decode (flips inside float payloads or list
// bodies can be value-preserving-shaped) or fail with an error — never
// panic, hang, or size an allocation past the decode caps. This is the
// tolerance a peer relies on when the other end (or the network)
// misbehaves and the CRC happens to agree.
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

// fuzzWire lets `go test -fuzz` explore one decoder beyond the
// deterministic storm; in normal test runs the target replays its seed
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

// streamFuzzCap is the round cap the record-stream decoder is fuzzed
// under: the sample stream ends (Done) inside it, so one more round record
// is over the cap.
const streamFuzzCap = 4

// encodeStream frames what a worker streams: the begin record when infos
// is non-nil, one round record per ns blocks of flat, then the trailer.
func encodeStream(ns int, infos []core.BeginInfo, flat []core.RoundInfo) []byte {
	var b []byte
	if infos != nil {
		b = appendBeginRecord(b, infos, nil)
	}
	for i := 0; i < len(flat); i += ns {
		b = appendRoundRecord(b, flat[i:i+ns], nil)
	}
	return appendTrailer(b, len(flat)/ns)
}

// decodeStream reads a whole stream the way a session does, returning the
// rounds decoded before any error.
func decodeStream(b []byte, ns int, limit uint32, begin bool) (infos []core.BeginInfo, rows [][]core.RoundInfo, err error) {
	st := roundStream{rr: recordReader{r: bytes.NewReader(b), fb: new(frameBuf)}, nShards: ns, left: limit}
	base := time.Unix(0, 0)
	if begin {
		if infos, _, err = st.begin(base); err != nil {
			return nil, nil, err
		}
	}
	for !st.done {
		row, _, err := st.round(base)
		if err != nil {
			return infos, rows, err
		}
		rows = append(rows, row)
	}
	return infos, rows, nil
}

// checkFlippedStream flips one bit of a pristine stream: the decode must
// fail, and every round it returned first must be the pristine one.
func checkFlippedStream(t *testing.T, pristine []byte, ns int, limit uint32, bit uint32) {
	t.Helper()
	_, want, err := decodeStream(pristine, ns, limit, true)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(pristine)
	k := bit % uint32(8*len(mut))
	mut[k/8] ^= 1 << (k % 8)
	_, rows, err := decodeStream(mut, ns, limit, true)
	if err == nil {
		t.Fatalf("bit %d flipped: the stream decoded without error", k)
	}
	for i, row := range rows {
		if !bytes.Equal(appendHostInfosReply(nil, row), appendHostInfosReply(nil, want[i])) {
			t.Fatalf("bit %d flipped: round %d decoded perturbed", k, i+1)
		}
	}
}

// FuzzDecodeRecordStream drives the record-stream decoder — a session's
// view of a beginset reply — with arbitrary bytes (it must not panic or
// exceed its cap) and with the pristine stream under one flipped bit (an
// error, never a decoded round). The seeds are the shapes a stream breaks
// in: truncated, an oversized length, a flipped CRC, no trailer, over cap.
func FuzzDecodeRecordStream(f *testing.F) {
	const ns = 2
	begins := []core.BeginInfo{{Matched: 3, GroupMasses: [][]int32{{5, 0, 7}, {2}, {1, 1}}}, {GroupMasses: [][]int32{{0, 0, 0}, {0}, {0, 0}}}}
	pristine := encodeStream(ns, begins, sampleRoundInfos())
	oversized := bytes.Clone(pristine)
	oversized[3] = 0xff
	crcFlipped := bytes.Clone(pristine)
	crcFlipped[5] ^= 0x20
	noTrailer := pristine[:len(pristine)-recordHeader-5]
	undone := sampleRoundInfos()[:4]
	overCap := encodeStream(ns, begins, append(append(undone, undone...), undone[:2]...))
	for i, b := range [][]byte{pristine, pristine[:len(pristine)/2], oversized, crcFlipped, noTrailer, overCap} {
		f.Add(b, uint32(i*977))
	}
	var check func(t *testing.T, b []byte) error
	for _, wd := range wireDecoders() {
		if wd.name == "record-stream" {
			check = wd.check
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, bit uint32) {
		_ = check(t, b)
		checkFlippedStream(t, pristine, ns, streamFuzzCap, bit)
	})
}

func FuzzDecodeBeginSetRequest(f *testing.F) { fuzzWire(f, "beginset-request") }
func FuzzDecodeBeginSetReply(f *testing.F)   { fuzzWire(f, "beginset-reply") }
func FuzzDecodeRoundsRequest(f *testing.F)   { fuzzWire(f, "rounds-request") }
func FuzzDecodeHostRoundsReply(f *testing.F) { fuzzWire(f, "rounds-reply") }
func FuzzDecodeRoundRequest(f *testing.F)    { fuzzWire(f, "finalize-request") }
func FuzzDecodeHostInfosReply(f *testing.F)  { fuzzWire(f, "finalize-reply") }
func FuzzDecodeSpanBlock(f *testing.F)       { fuzzWire(f, "span-block") }
