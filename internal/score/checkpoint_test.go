package score

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"s3/internal/graph"
	"s3/internal/text"
)

// iterState is a bit-exact snapshot of an iterator's observable state:
// what every search round reads (n, prox≤n, the discovered list, the tail
// bounds and the two-step ratio, Done) and, where captured, the border a
// propagation starts from.
type iterState struct {
	n                    int
	done                 bool
	tail, srcTail, ratio uint64
	colTail, ratioTail   uint64
	all                  []uint64
	disc                 []graph.NID

	hasBorder bool
	active    []int32
	border    []uint64
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, v := range xs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// borderDefined is the Border/BorderProx contract: everywhere except
// strictly inside a resumed iterator's inherited depths, and on a rewound
// one from its recorded depth on.
func borderDefined(it *Iterator) bool { return it.n == 0 && !it.rewound || it.n >= len(it.layers) }

// captureState snapshots the iterator after a Step that returned disc.
// With border set it also reads Border/BorderProx where they are defined —
// which performs the hand-off if the iterator sits at its checkpoint's
// depth; without, the next Step has to.
func captureState(it *Iterator, disc []graph.NID, border bool) iterState {
	s := iterState{
		n:         it.N(),
		done:      it.Done(),
		tail:      math.Float64bits(it.TailBound()),
		srcTail:   math.Float64bits(it.SourceTailBound()),
		ratio:     math.Float64bits(it.ratio),
		colTail:   math.Float64bits(it.ColumnTail()),
		ratioTail: math.Float64bits(it.RatioTail()),
		all:       floatBits(it.AllProx()),
		disc:      slices.Clone(disc),
	}
	if border && borderDefined(it) {
		s.hasBorder = true
		s.active = slices.Clone(it.Border())
		s.border = floatBits(it.BorderProx())
	}
	return s
}

// statesEqual compares two states bit for bit; the borders only when both
// sides captured one.
func statesEqual(a, b iterState) bool {
	if a.n != b.n || a.done != b.done || a.tail != b.tail || a.srcTail != b.srcTail || a.ratio != b.ratio ||
		a.colTail != b.colTail || a.ratioTail != b.ratioTail ||
		!slices.Equal(a.all, b.all) || !slices.Equal(a.disc, b.disc) {
		return false
	}
	if a.hasBorder && b.hasBorder {
		return slices.Equal(a.active, b.active) && slices.Equal(a.border, b.border)
	}
	return true
}

// TestResumeStateIdentical is the checkpoint property test: for every
// recorded depth m, ResumeIterator(Checkpoint at m) stepped d times must
// match a fresh iterator stepped d times, bit for bit, for every d
// including depths beyond m (replay hand-off to real propagation):
// AllProx, the discovered list, N, TailBound, SourceTailBound and Done at
// every depth; Border and BorderProx (order included) at depth 0 and from
// the hand-off depth m onward. Each checkpoint is walked twice — once
// reading the border at m, so Border() performs the hand-off, once not, so
// the first propagating Step does.
//
// The rewound column: a recording iterator stepped to D — 0, 1, its first
// snapshot-form depth, and past Done — then rewound (Rewind) and stepped
// d ≤ D+3 times matches the fresh iterator stepped d times in the same
// state, with Border and BorderProx from D on.
func TestResumeStateIdentical(t *testing.T) {
	const maxDepth = 18
	type fixture struct {
		name    string
		in      *graph.Instance
		seekers []graph.NID
	}
	var fixtures []fixture
	for _, seed := range []int64{3, 17} {
		in, _ := buildRandom(t, seed)
		users := in.Users()
		fixtures = append(fixtures, fixture{fmt.Sprintf("random%d", seed), in, users[:min(3, len(users))]})
	}
	// The random instances are too sparse to saturate; these two record
	// snapshot-form depths, steadily and alternating with narrow ones.
	tw := generatorInstances(t)["twitter"]
	fixtures = append(fixtures, fixture{"twitter", tw, tw.Users()[:2]})
	star, leaf := starInstance(t, 40)
	hub, _ := star.NIDOf("hub")
	fixtures = append(fixtures, fixture{"star", star, []graph.NID{leaf, hub}})

	adopted := 0                    // snapshot-form depths replayed
	rewoundSat, rewoundDone := 0, 0 // rewound at a first snapshot-form depth, past Done
	for _, fx := range fixtures {
		in := fx.in
		for _, params := range []Params{DefaultParams(), {Gamma: 2, Eta: 0.5}} {
			for _, u := range fx.seekers {
				// Reference trajectory from a fresh recording iterator,
				// checkpointing at every depth along the way.
				ref := NewRecordingIterator(in, params, u)
				snaps := []iterState{captureState(ref, nil, true)}
				cps := []*ProxCheckpoint{ref.Checkpoint()}
				for !ref.Done() && ref.N() < maxDepth {
					disc := ref.Step()
					snaps = append(snaps, captureState(ref, disc, true))
					cps = append(cps, ref.Checkpoint())
				}
				total := ref.N()

				// A plain iterator must walk the same trajectory (recording
				// must not perturb the numbers).
				plain := NewIterator(in, params, u)
				for d := 1; d <= total; d++ {
					disc := plain.Step()
					if got := captureState(plain, disc, true); !got.hasBorder || !statesEqual(got, snaps[d]) {
						t.Fatalf("%s u=%d d=%d: plain iterator diverges from recording one", fx.name, u, d)
					}
				}

				for m, cp := range cps {
					if cp.N() != m {
						t.Fatalf("checkpoint at depth %d reports N=%d", m, cp.N())
					}
					if cp.Seeker() != u || cp.Params() != params {
						t.Fatalf("checkpoint identity mangled: %v %v", cp.Seeker(), cp.Params())
					}
					for _, l := range cp.layers {
						if l.all != nil {
							adopted++
						}
					}
					for _, peekAtHandOff := range []bool{true, false} {
						it, err := ResumeIterator(in, cp)
						if err != nil {
							t.Fatal(err)
						}
						if got := captureState(it, nil, true); !got.hasBorder || !statesEqual(got, snaps[0]) {
							t.Fatalf("%s u=%d m=%d: resumed initial state differs", fx.name, u, m)
						}
						for d := 1; d <= total; d++ {
							disc := it.Step()
							got := captureState(it, disc, d != m || peekAtHandOff)
							if !statesEqual(got, snaps[d]) {
								t.Fatalf("%s u=%d m=%d d=%d: resumed state differs (replay boundary at %d)",
									fx.name, u, m, d, m)
							}
							if wantBorder := d > m || d == m && peekAtHandOff; got.hasBorder != wantBorder {
								t.Fatalf("%s u=%d m=%d d=%d: border compared = %v, want %v",
									fx.name, u, m, d, got.hasBorder, wantBorder)
							}
						}
						if it.Done() != ref.Done() {
							t.Fatalf("%s u=%d m=%d: Done mismatch", fx.name, u, m)
						}
					}
				}

				depths := []int{0, min(1, total)}
				if i := slices.IndexFunc(cps[total].layers, func(l proxLayer) bool { return l.all != nil }); i >= 0 {
					depths = append(depths, i+1)
					rewoundSat++
				}
				if ref.Done() {
					depths = append(depths, total)
					rewoundDone++
				}
				for _, D := range depths {
					it := NewRecordingIterator(in, params, u)
					for it.N() < D {
						it.Step()
					}
					if it.Done() {
						it.Step() // past Done: a no-op the rewind must not mind
					}
					it.Rewind()
					if got := captureState(it, nil, true); !statesEqual(got, snaps[0]) || got.hasBorder != (D == 0) {
						t.Fatalf("%s u=%d D=%d: rewound initial state differs (border compared = %v)", fx.name, u, D, got.hasBorder)
					}
					last := D + 3
					if !ref.Done() {
						last = min(last, total)
					}
					for d := 1; d <= last; d++ {
						disc := it.Step()
						want := snaps[min(d, total)]
						if d > total {
							want.disc = nil
						}
						got := captureState(it, disc, true)
						if !statesEqual(got, want) {
							t.Fatalf("%s u=%d D=%d d=%d: rewound state differs", fx.name, u, D, d)
						}
						if got.hasBorder != (d >= D) {
							t.Fatalf("%s u=%d D=%d d=%d: border compared = %v", fx.name, u, D, d, got.hasBorder)
						}
					}
				}
			}
		}
	}
	if adopted == 0 {
		t.Fatal("no fixture recorded a snapshot-form depth")
	}
	if rewoundSat == 0 || rewoundDone == 0 {
		t.Fatalf("rewound at a snapshot-form depth %d times, past Done %d times: want both", rewoundSat, rewoundDone)
	}
}

// TestCheckpointMisuse covers the guard rails: non-recording iterators
// yield no checkpoint, resumption is bound to the instance, and the
// deepen-only Supersedes relation behaves.
func TestCheckpointMisuse(t *testing.T) {
	in, _ := buildRandom(t, 7)
	in2, _ := buildRandom(t, 7)
	u := in.Users()[0]
	params := DefaultParams()

	if cp := NewIterator(in, params, u).Checkpoint(); cp != nil {
		t.Fatal("non-recording iterator produced a checkpoint")
	}
	if _, err := ResumeIterator(in, nil); err == nil {
		t.Fatal("nil checkpoint resumed")
	}

	it := NewRecordingIterator(in, params, u)
	it.Step()
	shallow := it.Checkpoint()
	it.Step()
	deep := it.Checkpoint()
	if _, err := ResumeIterator(in2, deep); err == nil {
		t.Fatal("checkpoint resumed on a different instance")
	}
	if !deep.Supersedes(shallow) || shallow.Supersedes(deep) {
		t.Fatal("Supersedes is not deepen-only")
	}
	if shallow.Supersedes(shallow) {
		t.Fatal("checkpoint supersedes itself")
	}
	if !deep.Supersedes(nil) {
		t.Fatal("checkpoint must supersede nil")
	}
	// A stale-instance entry is always superseded, even by a shallower one.
	it2 := NewRecordingIterator(in2, params, in2.Users()[0])
	it2.Step()
	other := it2.Checkpoint()
	if !shallow.Supersedes(other) {
		t.Fatal("cross-instance checkpoint not superseded")
	}
	if deep.Bytes() <= shallow.Bytes() {
		t.Fatalf("deeper checkpoint not bigger: %d vs %d", deep.Bytes(), shallow.Bytes())
	}
}

// TestRewindMisuse: Rewind refuses an iterator that is not recording — a
// plain one, or one already rewound — and a resumed one inside its
// inherited depths, whose borders are not live; a rewound iterator
// publishes no checkpoint.
func TestRewindMisuse(t *testing.T) {
	in, _ := buildRandom(t, 7)
	u := in.Users()[0]
	params := DefaultParams()
	rec := NewRecordingIterator(in, params, u)
	rec.Step()
	rec.Step()
	cp := rec.Checkpoint()
	rec.Rewind()
	if rec.Checkpoint() != nil {
		t.Fatal("rewound iterator published a checkpoint")
	}
	resumed, err := ResumeIterator(in, cp)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Step()
	for name, it := range map[string]*Iterator{
		"plain":   NewIterator(in, params, u),
		"rewound": rec,
		"resumed": resumed,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rewind of a %s iterator did not panic", name)
				}
			}()
			it.Rewind()
		}()
	}
}

// starInstance is a hub user with the given number of leaf followers,
// social edges both ways: from a leaf the border alternates between the
// hub alone and every leaf, so narrow and snapshot-form depths alternate
// for ever.
func starInstance(t *testing.T, leaves int) (*graph.Instance, graph.NID) {
	t.Helper()
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	mustOK(t, b.AddUser("hub"))
	for i := 0; i < leaves; i++ {
		leaf := fmt.Sprintf("leaf%d", i)
		mustOK(t, b.AddUser(leaf))
		mustOK(t, b.AddSocial(leaf, "hub", 1, ""))
		mustOK(t, b.AddSocial("hub", leaf, 0.5, ""))
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seeker, ok := in.NIDOf("leaf0")
	if !ok {
		t.Fatal("no leaf0")
	}
	return in, seeker
}

// checkpointHash digests every recorded bit of a checkpoint: both forms
// of every layer, their masses and ratios, and the two saved hand-off
// borders.
func checkpointHash(cp *ProxCheckpoint) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, l := range append(slices.Clone(cp.layers), cp.last, cp.prevLast) {
		put(math.Float64bits(l.mass))
		put(math.Float64bits(l.ratio))
		for _, xs := range [][]float64{l.vals, l.all} {
			put(uint64(len(xs)))
			for _, v := range xs {
				put(math.Float64bits(v))
			}
		}
		put(uint64(len(l.nodes)))
		for _, c := range l.nodes {
			put(uint64(c))
		}
		put(uint64(len(l.disc)))
		for _, c := range l.disc {
			put(uint64(c))
		}
	}
	return h.Sum64()
}

// TestCheckpointImmutableUnderExtension: iterators resumed concurrently
// from one checkpoint — some stopping inside it, some at its depth, some
// propagating past it, and (on the star) replaying a narrow layer after
// an adopted snapshot — each walk the reference trajectory, and leave the
// checkpoint's depth and every recorded bit as they were. Under -race this
// is the check that a borrowed snapshot is never written.
func TestCheckpointImmutableUnderExtension(t *testing.T) {
	tw := generatorInstances(t)["twitter"]
	star, leaf := starInstance(t, 40)
	for _, fx := range []struct {
		name   string
		in     *graph.Instance
		seeker graph.NID
		depth  int
	}{{"twitter", tw, tw.Users()[0], 6}, {"star", star, leaf, 5}} {
		params := DefaultParams()
		ref := NewRecordingIterator(fx.in, params, fx.seeker)
		var snaps []iterState
		var cp *ProxCheckpoint
		for d := 1; d <= fx.depth+4; d++ {
			snaps = append(snaps, captureState(ref, ref.Step(), true))
			if d == fx.depth {
				cp = ref.Checkpoint()
			}
		}
		dense, narrowAfterDense := 0, false
		for d, l := range cp.layers {
			if l.all != nil {
				dense++
			} else if d > 0 && cp.layers[d-1].all != nil {
				narrowAfterDense = true
			}
		}
		if dense == 0 {
			t.Fatalf("%s: checkpoint holds no snapshot-form depth", fx.name)
		}
		if fx.name == "star" && !narrowAfterDense {
			t.Fatal("star: no narrow layer follows a snapshot")
		}
		before := checkpointHash(cp)

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Stop depths 1 … depth+4 cover inside, at and past the checkpoint.
				stop := 1 + (g*3)%(fx.depth+4)
				it, err := ResumeIterator(fx.in, cp)
				if err != nil {
					t.Error(err)
					return
				}
				for d := 1; d <= stop; d++ {
					if !statesEqual(captureState(it, it.Step(), g%2 == 0), snaps[d-1]) {
						t.Errorf("%s: iterator %d diverges at depth %d", fx.name, g, d)
						return
					}
				}
				if stop >= fx.depth {
					// Publishing a deepened exploration reads the shared layers too.
					if it.Checkpoint().N() != stop {
						t.Errorf("%s: iterator %d republished at the wrong depth", fx.name, g)
					}
				}
			}(g)
		}
		wg.Wait()
		if cp.N() != fx.depth {
			t.Fatalf("%s: checkpoint depth changed to %d", fx.name, cp.N())
		}
		if checkpointHash(cp) != before {
			t.Fatalf("%s: checkpoint bits changed under concurrent resumes", fx.name)
		}
	}
}

// TestReleaseDropsCheckpointReferences: a released iterator — what a pool
// holds between searches — references no checkpoint memory, wherever the
// exploration stopped, and its next exploration writes none.
func TestReleaseDropsCheckpointReferences(t *testing.T) {
	in, leaf := starInstance(t, 40)
	params := DefaultParams()
	base := NewRecordingIterator(in, params, leaf)
	for d := 0; d < 6; d++ {
		base.Step()
	}
	cp := base.Checkpoint()
	before := checkpointHash(cp)
	other, _ := in.NIDOf("leaf7")
	for stop := 0; stop <= cp.N()+1; stop++ {
		it, err := ResumeIterator(in, cp)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < stop; d++ {
			it.Step()
		}
		it.Release()
		if it.layers != nil || it.last.nodes != nil || it.last.vals != nil || it.prevLast.nodes != nil || it.prevLast.vals != nil || &it.all[0] != &it.own[0] {
			t.Fatalf("stop=%d: released iterator still references the checkpoint", stop)
		}
		for _, l := range cp.layers {
			if l.all != nil && &l.all[0] == &it.own[0] {
				t.Fatalf("stop=%d: iterator owns a checkpoint snapshot", stop)
			}
		}
		// The next user — fresh or resumed — must see a clean iterator.
		it.Reset(in, params, other, false)
		fresh := NewIterator(in, params, other)
		for d := 0; d < 4; d++ {
			if !statesEqual(captureState(it, it.Step(), true), captureState(fresh, fresh.Step(), true)) {
				t.Fatalf("stop=%d: reused iterator diverges at depth %d", stop, d+1)
			}
		}
		if err := it.Resume(in, cp); err != nil {
			t.Fatal(err)
		}
		again, _ := ResumeIterator(in, cp)
		for d := 0; d < cp.N()+2; d++ {
			if !statesEqual(captureState(it, it.Step(), true), captureState(again, again.Step(), true)) {
				t.Fatalf("stop=%d: re-resumed iterator diverges at depth %d", stop, d+1)
			}
		}
	}
	if checkpointHash(cp) != before {
		t.Fatal("checkpoint bits changed by released and reused iterators")
	}
}

// TestCheckpointBytes: Bytes() is the real slice footprint up to the
// fixed overhead constants; a seeker confined to a small component stays
// in narrow form at a size independent of N; a saturated exploration is
// no larger than the 12·Σ|border| an all-narrow checkpoint would take.
func TestCheckpointBytes(t *testing.T) {
	payload := func(cp *ProxCheckpoint) (bytes int64, dense int) {
		layers := slices.Clone(cp.layers)
		if d := len(layers); d > 0 {
			// The two kept borders, where they are copies.
			if layers[d-1].all != nil {
				layers = append(layers, cp.last)
			}
			if d == 1 || layers[d-2].all != nil {
				layers = append(layers, cp.prevLast)
			}
		}
		for _, l := range layers {
			bytes += int64(4*cap(l.nodes) + 8*cap(l.vals) + 8*cap(l.all) + 4*cap(l.disc))
			if l.all != nil {
				dense++
			}
		}
		return bytes, dense
	}
	explore := func(in *graph.Instance, u graph.NID, depth int) (cp *ProxCheckpoint, borders int64) {
		it := NewRecordingIterator(in, DefaultParams(), u)
		for d := 0; d < depth && !it.Done(); d++ {
			it.Step()
			borders += int64(len(it.Border()))
		}
		return it.Checkpoint(), borders
	}
	checkOverhead := func(name string, cp *ProxCheckpoint) {
		t.Helper()
		real, _ := payload(cp)
		slack := int64(checkpointBaseBytes + layerOverheadBytes*(cp.N()+2)) // the layers and the two kept borders
		if over := cp.Bytes() - real; over < 0 || over > slack {
			t.Fatalf("%s: Bytes() = %d, slices hold %d (allowed overhead %d)", name, cp.Bytes(), real, slack)
		}
	}

	// A pair of users following each other, beside a star of growing size:
	// the pair's checkpoint must not notice.
	var pairBytes []int64
	for _, leaves := range []int{40, 400} {
		b := graph.NewBuilder(text.Analyzer{Lang: text.None})
		for _, u := range []string{"a", "b", "hub"} {
			mustOK(t, b.AddUser(u))
		}
		mustOK(t, b.AddSocial("a", "b", 1, ""))
		mustOK(t, b.AddSocial("b", "a", 1, ""))
		for i := 0; i < leaves; i++ {
			leaf := fmt.Sprintf("leaf%d", i)
			mustOK(t, b.AddUser(leaf))
			mustOK(t, b.AddSocial(leaf, "hub", 1, ""))
			mustOK(t, b.AddSocial("hub", leaf, 1, ""))
		}
		in, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		a, _ := in.NIDOf("a")
		cp, _ := explore(in, a, 10)
		checkOverhead("pair", cp)
		if _, dense := payload(cp); dense != 0 {
			t.Fatalf("pair beside %d leaves: %d snapshot-form depths in a 2-node component", leaves, dense)
		}
		pairBytes = append(pairBytes, cp.Bytes())

		leaf, _ := in.NIDOf("leaf0")
		cp, borders := explore(in, leaf, 10)
		checkOverhead("star", cp)
		if _, dense := payload(cp); dense == 0 {
			t.Fatalf("star of %d leaves: no snapshot-form depth", leaves)
		}
		if real, _ := payload(cp); leaves == 400 && real > 12*borders {
			t.Fatalf("star: checkpoint holds %d B, the all-narrow form %d B", real, 12*borders)
		}
	}
	if pairBytes[0] != pairBytes[1] || pairBytes[0] > checkpointBaseBytes+10*(layerOverheadBytes+2*layerEntryBytes) {
		t.Fatalf("small-component checkpoint depends on N or is not O(component × depth): %v B", pairBytes)
	}

	// A saturated exploration on a generated graph, deep as a search goes.
	in := generatorInstances(t)["twitter"]
	cp, borders := explore(in, in.Users()[0], 25)
	checkOverhead("twitter", cp)
	real, dense := payload(cp)
	if dense == 0 {
		t.Fatal("twitter: exploration never saturates")
	}
	if real > 12*borders {
		t.Fatalf("twitter: checkpoint holds %d B, the all-narrow form %d B", real, 12*borders)
	}
}
