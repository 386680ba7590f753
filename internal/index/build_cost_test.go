package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/text"
)

// servingInstance builds the twitter instance of `s3gen -dataset twitter
// -seed 1` at the given scale, or the vodkaster or yelp one of its default
// options at scale 1.
func servingInstance(tb testing.TB, dataset string, scale int) *graph.Instance {
	tb.Helper()
	var spec graph.Spec
	switch dataset {
	case "twitter":
		o := datagen.DefaultTwitterOptions()
		o.Users, o.Tweets = scale*o.Users, scale*o.Tweets
		spec, _ = datagen.Twitter(o)
	case "vodkaster":
		spec = datagen.Vodkaster(datagen.DefaultVodkasterOptions())
	case "yelp":
		spec = datagen.Yelp(datagen.DefaultYelpOptions())
	}
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// flatDigest is the sha256 of a flat index's three arrays, each value
// little-endian in field order: what a snapshot's index sections hold.
func flatDigest(f Flat) string {
	h := sha256.New()
	var b [8]byte
	for _, kw := range f.Kws {
		binary.LittleEndian.PutUint32(b[:4], uint32(kw))
		h.Write(b[:4])
	}
	for _, off := range f.EvOff {
		binary.LittleEndian.PutUint64(b[:], uint64(off))
		h.Write(b[:])
	}
	for _, ev := range f.Evs {
		binary.LittleEndian.PutUint32(b[:4], uint32(ev.Frag))
		binary.LittleEndian.PutUint32(b[4:], uint32(ev.Src))
		h.Write(b[:])
		h.Write([]byte{byte(ev.Type)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFlatDigestAtServingScale pins the index Build freezes for the
// serving-size instances, byte for byte: TestFormatGolden's instances have
// 60–70 users, these have thousands, so a build that reorders or loses an
// event only at scale shows here.
func TestFlatDigestAtServingScale(t *testing.T) {
	for _, c := range []struct{ dataset, digest string }{
		{"twitter", "6273e7f88ae9411560fe554d645e11b5906adfea415ca6c544a1585d8faab2b4"},
		{"vodkaster", "6d122d3a8d8e698a845fefc025a647c385090d32fafb9c0913ab6ad17e41e73b"},
		{"yelp", "a7aae82d5a8d14bb3fdb09517d867ff0608c8fe02f6e97789543f92dae0ae53f"},
	} {
		f := Build(servingInstance(t, c.dataset, 1)).Flat()
		if got := flatDigest(f); got != c.digest {
			t.Errorf("%s: %d keywords, %d events, Flat digest %s, want %s", c.dataset, len(f.Kws), len(f.Evs), got, c.digest)
		}
	}
}

// buildMaxMB bounds what index.Build allocates over the twitter scale-1
// instance, in MB (10⁶ B).
const buildMaxMB = 12

// TestBuildAllocBudget bounds the bytes index.Build allocates at twitter
// scale 1. Not parallel: the figure is a difference of whole-process
// readings. Not measured under the race detector, whose runtime allocates
// on its own account.
func TestBuildAllocBudget(t *testing.T) {
	in := servingInstance(t, "twitter", 1)
	if raceEnabled {
		Build(in)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := Build(in)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("index.Build at twitter scale 1: %d events, %.2f MB allocated", ix.NumEvents(), mb)
	if mb > buildMaxMB {
		t.Errorf("index.Build allocates %.2f MB at twitter scale 1, budget %d MB", mb, buildMaxMB)
	}
}

// BenchmarkBuild is the cost of index.Build over the twitter instance of
// `s3gen -dataset twitter -seed 1` at scales 1 and 4.
func BenchmarkBuild(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("twitter/scale=%d", scale), func(b *testing.B) {
			in := servingInstance(b, "twitter", scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Build(in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/op")
		})
	}
}
