package dshard

import (
	"math/rand"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/obs"
	"s3/internal/score"
)

// sampleRoundInfos builds a representative batched reply: three rounds of
// a two-member session (round-major), kept lists of varying length, an
// uncertain candidate, non-trivial float bounds.
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
	root := obs.NewSpan("exec.rounds")
	child := obs.NewSpan("exec.round")
	child.SetInt("shard", 1)
	child.End()
	root.Attach(child)
	root.SetInt("rounds", 3)
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
	span := appendSpanBlock(nil, sampleSpan())
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
						t.Fatalf("decoded a first batch of %d rounds without error", r.rounds)
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
			frame:        append(append(appendBeginSetReply(nil, begins, flat), span...), span...),
			optionalTail: 2 * len(span),
			check: func(t *testing.T, b []byte) error {
				infos, rows, _, _, err := decodeBeginSetReply(b, ns, base)
				if err == nil {
					if len(infos) != ns {
						t.Fatalf("decoded %d begin infos for a %d-member session without error", len(infos), ns)
					}
					if len(rows) > maxWorkerBatch {
						t.Fatalf("decoded %d rounds without error", len(rows))
					}
					for _, row := range rows {
						if len(row) != ns {
							t.Fatalf("decoded a row of %d blocks for a %d-member session", len(row), ns)
						}
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
			frame:        append(appendHostRoundsReply(nil, flat, ns), span...),
			optionalTail: len(span),
			check: func(t *testing.T, b []byte) error {
				rows, _, err := decodeHostRoundsReply(b, ns, base)
				if err == nil {
					if len(rows) == 0 || len(rows) > maxWorkerBatch {
						t.Fatalf("decoded %d rounds without error", len(rows))
					}
					for _, row := range rows {
						if len(row) != ns {
							t.Fatalf("decoded a row of %d blocks for a %d-member session", len(row), ns)
						}
						for _, info := range row {
							if len(info.Kept) > maxKept {
								t.Fatalf("decoded %d kept candidates past the cap", len(info.Kept))
							}
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
			frame:        append(appendHostInfosReply(nil, flat[:ns]), span...),
			optionalTail: len(span),
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
			frame: span,
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

func FuzzDecodeBeginSetRequest(f *testing.F) { fuzzWire(f, "beginset-request") }
func FuzzDecodeBeginSetReply(f *testing.F)   { fuzzWire(f, "beginset-reply") }
func FuzzDecodeRoundsRequest(f *testing.F)   { fuzzWire(f, "rounds-request") }
func FuzzDecodeHostRoundsReply(f *testing.F) { fuzzWire(f, "rounds-reply") }
func FuzzDecodeRoundRequest(f *testing.F)    { fuzzWire(f, "finalize-request") }
func FuzzDecodeHostInfosReply(f *testing.F)  { fuzzWire(f, "finalize-reply") }
func FuzzDecodeSpanBlock(f *testing.F)       { fuzzWire(f, "span-block") }
