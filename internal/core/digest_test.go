package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/proxcache"
	"s3/internal/score"
)

// batteryDigests pins the answers of the 200-query cold battery, per run,
// as the SHA-256 of its transcript (see digestBattery). A change that
// claims not to move an answer bit must leave all three unchanged; one
// that moves answers on purpose recomputes them and says so.
var batteryDigests = map[string]string{
	"cold":        "14874a9ac1d76f85aa96e0a4172b1fdabf68d8f489753090924b00217c7f005a",
	"warm":        "8af94c1dde226657308aa66f4fc3ad8c3d5387840f21422cde2fc4ddd967f34d",
	"split-merge": "14874a9ac1d76f85aa96e0a4172b1fdabf68d8f489753090924b00217c7f005a",
}

// digestBattery runs the battery over eng and hashes, per query, the
// answer's documents with the exact bits of their score intervals, then
// the search's Iterations, Reason and ResumedDepth.
func digestBattery(t *testing.T, h hash.Hash, eng *Engine, qs []coldQuery, pc *proxcache.Cache) {
	t.Helper()
	opts := Options{Params: score.DefaultParams(), ProxCache: pc}
	for i, q := range qs {
		opts.K = q.k
		rs, st, err := eng.Search(q.seeker, q.keywords, opts)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for _, r := range rs {
			fmt.Fprintf(h, "%d %x %x\n", r.Doc, math.Float64bits(r.Lower), math.Float64bits(r.Upper))
		}
		fmt.Fprintf(h, "iter=%d reason=%s resumed=%d\n", st.Iterations, st.Reason, st.ResumedDepth)
	}
}

// TestBatteryTranscriptDigest: the battery's answers are byte-identical to
// the ones recorded in batteryDigests — cold; warm, the battery twice over
// one proximity cache (the first pass fills it, the second resumes from
// it, and both are hashed); and cold over the index split four ways by
// component and merged back, as a shard set's files hold it. The searches
// are serial, so the race detector has nothing to find here and only
// stretches the test's few seconds past a minute; it is skipped there.
func TestBatteryTranscriptDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("serial searches: nothing for the race detector")
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

	runs := []struct {
		name string
		run  func(h hash.Hash)
	}{
		{"cold", func(h hash.Hash) { digestBattery(t, h, eng, qs, nil) }},
		{"warm", func(h hash.Hash) {
			pc := proxcache.New(64 << 20)
			digestBattery(t, h, eng, qs, pc)
			digestBattery(t, h, eng, qs, pc)
		}},
		{"split-merge", func(h hash.Hash) { digestBattery(t, h, eng.WithIndex(merged), qs, nil) }},
	}
	for _, r := range runs {
		h := sha256.New()
		r.run(h)
		if got, want := hex.EncodeToString(h.Sum(nil)), batteryDigests[r.name]; got != want {
			t.Errorf("%s battery digest %s, want %s", r.name, got, want)
		}
	}
}
