package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/proxcache"
	"s3/internal/score"
)

// batteryDigest is one battery run's pair of SHA-256 digests (see
// digestBattery). The answer-set digest moves only with a semantic change:
// a change to the bounds may move the transcript, never the sets. A
// change that claims not to move an answer bit leaves both unchanged; one
// that moves the transcript on purpose re-pins it and says so. A run also
// counts its searches' rounds, which TestBatteryRounds bounds; the pinned
// digests leave the count 0.
type batteryDigest struct {
	answers, transcript string
	rounds              int
}

var batteryDigests = map[string]batteryDigest{
	"cold": {
		answers:    "19b66c77da93603e6924caa5153e53687a185d256902ad3aaf4a1ba05b35d08e",
		transcript: "50e316ab0244cfcab501d6463205a5090c331df5e98dc3f9f8aa71958fc4b007",
	},
	"warm": {
		answers:    "32aa6650c99a6f06810bca5a953d85aadce96a4fb3fcc80f5e85d2eb27ce13d8",
		transcript: "0fb1b00e802266ffc9a2bfec6ef35839194e0ce06db0f56060c0ba0024356f7e",
	},
	"split-merge": {
		answers:    "19b66c77da93603e6924caa5153e53687a185d256902ad3aaf4a1ba05b35d08e",
		transcript: "50e316ab0244cfcab501d6463205a5090c331df5e98dc3f9f8aa71958fc4b007",
	},
	"pre-explored": {
		answers:    "19b66c77da93603e6924caa5153e53687a185d256902ad3aaf4a1ba05b35d08e",
		transcript: "50e316ab0244cfcab501d6463205a5090c331df5e98dc3f9f8aa71958fc4b007",
	},
}

// digestBattery runs the battery over eng and hashes each query twice:
// into answers, the answer's documents as a sorted set; into transcript,
// the documents in answer order with the exact bits of their score
// intervals, then the search's Iterations, Reason and ResumedDepth. It
// returns each search's Iterations. With depth non-nil, search i is
// handed an iterator Explore took and stepped depth(i) times (see
// exploredSearch) instead of running Search.
func digestBattery(t *testing.T, answers, transcript hash.Hash, eng *Engine, qs []coldQuery, pc *proxcache.Cache, depth func(i int) int) (rounds []int) {
	t.Helper()
	opts := Options{Params: score.DefaultParams(), ProxCache: pc}
	var docs []graph.NID
	for i, q := range qs {
		opts.K = q.k
		var rs []Result
		var st Stats
		var err error
		if depth == nil {
			rs, st, err = eng.Search(q.seeker, q.keywords, opts)
		} else {
			it := eng.Explore(q.seeker, opts.Params)
			for it != nil && it.N() < depth(i) && !it.Done() {
				it.Step()
			}
			rs, st, err = exploredSearch(eng, q.seeker, q.keywords, opts, it)
		}
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		docs = docs[:0]
		for _, r := range rs {
			docs = append(docs, r.Doc)
			fmt.Fprintf(transcript, "%d %x %x\n", r.Doc, math.Float64bits(r.Lower), math.Float64bits(r.Upper))
		}
		fmt.Fprintf(transcript, "iter=%d reason=%s resumed=%d\n", st.Iterations, st.Reason, st.ResumedDepth)
		slices.Sort(docs)
		fmt.Fprintf(answers, "%d %v\n", i, docs)
		rounds = append(rounds, st.Iterations)
	}
	return rounds
}

// exploredSearch is Search as a distributed coordinator runs it, over an
// iterator Explore handed out and the caller stepped ahead: Query, then
// Run over that iterator (or Drop when there is no search to run).
func exploredSearch(eng *Engine, seeker graph.NID, keywords []string, opts Options, it *score.Iterator) ([]Result, Stats, error) {
	spec, possible, err := Query(eng.in, seeker, keywords, opts.K, opts.Params, nil)
	if err != nil || !possible {
		eng.Drop(it)
		return nil, Stats{Reason: StopNoMatch}, err
	}
	sel, st, err := eng.Run(spec, CoordOptions{}, nil, it)
	out := make([]Result, len(sel))
	for i, c := range sel {
		out[i] = Result{Doc: c.Doc, URI: eng.in.URIOf(c.Doc), Lower: c.Lower, Upper: c.Upper}
	}
	return out, st, err
}

// exploreCap is the depth cap of the distributed coordinator's explorer
// (dshard's exploreCap).
const exploreCap = 16

// batteryRuns caches battery's digests: both digest tests read one run.
var batteryRuns map[string]batteryDigest

// battery runs the 200-query cold battery once per test binary and
// returns its digests per run: cold; warm, the battery twice over one
// proximity cache (the first pass fills it, the second resumes from it,
// and both are hashed); cold over the index split four ways by component
// and merged back, as a shard set's files hold it; and pre-explored, each
// search handed an iterator stepped ahead to a depth that varies with the
// query — 0, half its cold rounds, the coordinator's cap, or 3 past its
// stop round — as a distributed coordinator hands one over.
func battery(t *testing.T) map[string]batteryDigest {
	t.Helper()
	if batteryRuns != nil {
		return batteryRuns
	}
	eng, qs := coldBattery(t, 200)
	in := eng.in
	parts, err := graph.PartitionComponents(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := graph.ComponentOwners(in.NumComponents(), parts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := index.Merge(in, index.Split(in, eng.ix.Flat(), owner, 4))
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]batteryDigest)
	var cold []int // each cold search's rounds, which pre-explored reads
	for _, r := range []struct {
		name string
		run  func(a, tr hash.Hash) []int
	}{
		{"cold", func(a, tr hash.Hash) []int {
			cold = digestBattery(t, a, tr, eng, qs, nil, nil)
			return cold
		}},
		{"warm", func(a, tr hash.Hash) []int {
			pc := proxcache.New(64 << 20)
			return append(digestBattery(t, a, tr, eng, qs, pc, nil), digestBattery(t, a, tr, eng, qs, pc, nil)...)
		}},
		{"split-merge", func(a, tr hash.Hash) []int { return digestBattery(t, a, tr, eng.WithIndex(merged), qs, nil, nil) }},
		{"pre-explored", func(a, tr hash.Hash) []int {
			return digestBattery(t, a, tr, eng, qs, nil, func(i int) int {
				return [...]int{0, cold[i] / 2, exploreCap, cold[i] + 3}[i%4]
			})
		}},
	} {
		a, tr := sha256.New(), sha256.New()
		rounds := 0
		for _, n := range r.run(a, tr) {
			rounds += n
		}
		runs[r.name] = batteryDigest{hex.EncodeToString(a.Sum(nil)), hex.EncodeToString(tr.Sum(nil)), rounds}
	}
	batteryRuns = runs
	return runs
}

// checkBattery compares one half of every run's digests with the pinned
// ones. The searches are serial, so the race detector has nothing to find
// here and only stretches the battery's few seconds past a minute; it is
// skipped there.
func checkBattery(t *testing.T, what string, half func(batteryDigest) string) {
	if raceEnabled {
		t.Skip("serial searches: nothing for the race detector")
	}
	runs := battery(t)
	for name, want := range batteryDigests {
		if got := half(runs[name]); got != half(want) {
			t.Errorf("%s battery %s digest %s, want %s", name, what, got, half(want))
		}
	}
}

// TestBatteryAnswerSetDigest: every run of the battery returns the answer
// sets recorded in batteryDigests — the documents, whatever their order
// and score intervals.
func TestBatteryAnswerSetDigest(t *testing.T) {
	checkBattery(t, "answer-set", func(d batteryDigest) string { return d.answers })
}

// TestBatteryTranscriptDigest: every run of the battery is byte-identical
// to the transcript recorded in batteryDigests — answer order, the bits of
// every score interval, Iterations, Reason and ResumedDepth.
func TestBatteryTranscriptDigest(t *testing.T) {
	checkBattery(t, "transcript", func(d batteryDigest) string { return d.transcript })
}

// batteryMaxRounds bounds the summed rounds of the cold battery's 200
// searches (twitter generator, γ = 1.5): 3,186, a mean of 15.93, once a
// finite two-step ratio zeroes the undiscovered components' source bound;
// 3,332, a mean of 16.66, with the column tail and the two-step ratio
// tail; 4,548, a mean of 22.74, with the column tail alone.
const batteryMaxRounds = 3186

// TestBatteryRounds: the cold battery's searches take at most
// batteryMaxRounds rounds between them, so a change to the bounds that
// gives rounds back fails here even where it leaves the answers alone.
func TestBatteryRounds(t *testing.T) {
	if raceEnabled {
		t.Skip("serial searches: nothing for the race detector")
	}
	if got := battery(t)["cold"].rounds; got > batteryMaxRounds {
		t.Errorf("cold battery: %d rounds (a mean of %.2f), at most %d allowed", got, float64(got)/200, batteryMaxRounds)
	}
}
