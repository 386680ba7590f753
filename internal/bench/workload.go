// Package bench regenerates the evaluation of the paper (§5): the qset
// workloads, the timing and quality measurements, and plain-text renderings
// of Figures 4-8.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/topks"
)

// Frequency selects the keyword band of a workload (§5.1): rare keywords
// come from the 25% least frequent, common ones from the 25% most
// frequent.
type Frequency int

const (
	// Rare is printed as "−" in the paper's workload ids.
	Rare Frequency = iota
	// Common is printed as "+".
	Common
)

func (f Frequency) String() string {
	if f == Common {
		return "+"
	}
	return "-"
}

// WorkloadID identifies one qset(f, l, k) workload.
type WorkloadID struct {
	Freq Frequency
	L    int // keywords per query
	K    int // result size
}

func (w WorkloadID) String() string {
	return fmt.Sprintf("%s,%d,%d", w.Freq, w.L, w.K)
}

// PaperWorkloads returns the eight workload ids of Figures 5, 6 and 8.
func PaperWorkloads() []WorkloadID {
	var out []WorkloadID
	for _, f := range []Frequency{Common, Rare} {
		for _, l := range []int{1, 5} {
			for _, k := range []int{5, 10} {
				out = append(out, WorkloadID{Freq: f, L: l, K: k})
			}
		}
	}
	return out
}

// KSweepWorkloads returns the k-sweep ids of Figure 7 (single-keyword
// queries, k ∈ {1, 5, 10, 50}).
func KSweepWorkloads() []WorkloadID {
	var out []WorkloadID
	for _, f := range []Frequency{Common, Rare} {
		for _, k := range []int{1, 5, 10, 50} {
			out = append(out, WorkloadID{Freq: f, L: 1, K: k})
		}
	}
	return out
}

// Query is one keyword query with its seeker.
type Query struct {
	Seeker   graph.NID
	Keywords []string
}

// Workload is a set of queries drawn for one WorkloadID.
type Workload struct {
	ID      WorkloadID
	Queries []Query
}

// BuildWorkload draws n queries: keywords uniformly from the requested
// frequency band (restricted to keywords occurring at least twice, so
// every query can match something), seekers uniformly among users with at
// least one outgoing edge.
func BuildWorkload(in *graph.Instance, id WorkloadID, n int, seed int64) (Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	sorted := in.SortedKeywordsByFrequency()
	var usable []dict.ID
	for _, k := range sorted {
		if in.KeywordFrequency(k) >= 2 {
			usable = append(usable, k)
		}
	}
	if len(usable) < 4*id.L {
		return Workload{}, fmt.Errorf("bench: instance vocabulary too small for workload %s", id)
	}
	quarter := len(usable) / 4
	var band []dict.ID
	if id.Freq == Rare {
		band = usable[:quarter]
	} else {
		band = usable[len(usable)-quarter:]
	}

	var seekers []graph.NID
	for _, u := range in.Users() {
		if len(in.OutEdges(u)) > 0 {
			seekers = append(seekers, u)
		}
	}
	if len(seekers) == 0 {
		return Workload{}, fmt.Errorf("bench: no connected users")
	}

	bandSet := make(map[dict.ID]struct{}, len(band))
	for _, k := range band {
		bandSet[k] = struct{}{}
	}

	w := Workload{ID: id}
	for q := 0; q < n; q++ {
		var kws []string
		if id.L == 1 {
			kws = []string{in.Dict().String(band[rng.Intn(len(band))])}
		} else {
			// Multi-keyword queries are conjunctive: draw the keywords
			// from a single document's vocabulary so that they co-occur
			// (real multi-keyword queries describe one topic; independent
			// draws from a Zipfian vocabulary almost never co-occur).
			kws = coOccurringKeywords(in, rng, bandSet, id.L)
			for len(kws) < id.L {
				k := band[rng.Intn(len(band))]
				s := in.Dict().String(k)
				if !containsStr(kws, s) {
					kws = append(kws, s)
				}
			}
		}
		w.Queries = append(w.Queries, Query{
			Seeker:   seekers[rng.Intn(len(seekers))],
			Keywords: kws,
		})
	}
	return w, nil
}

// coOccurringKeywords samples up to l distinct keywords from one random
// document tree, preferring keywords in the requested frequency band. It
// tries several documents and keeps the best draw.
func coOccurringKeywords(in *graph.Instance, rng *rand.Rand, band map[dict.ID]struct{}, l int) []string {
	roots := in.DocRoots()
	if len(roots) == 0 {
		return nil
	}
	var best []string
	var nodes []graph.NID
	for attempt := 0; attempt < 50 && len(best) < l; attempt++ {
		root := roots[rng.Intn(len(roots))]
		nodes = in.SubtreeOf(root, nodes[:0])
		seen := make(map[dict.ID]struct{})
		var inBand, others []dict.ID
		for _, nd := range nodes {
			for _, k := range in.KeywordsOf(nd) {
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				if _, ok := band[k]; ok {
					inBand = append(inBand, k)
				} else if in.KeywordFrequency(k) >= 2 {
					others = append(others, k)
				}
			}
		}
		// Deterministic sampling: shuffle with the workload rng, prefer
		// in-band keywords, top up with co-occurring off-band ones rather
		// than breaking co-occurrence.
		rng.Shuffle(len(inBand), func(i, j int) { inBand[i], inBand[j] = inBand[j], inBand[i] })
		rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		var pick []string
		for _, k := range append(inBand, others...) {
			if len(pick) == l {
				break
			}
			pick = append(pick, in.Dict().String(k))
		}
		if len(pick) > len(best) {
			best = pick
		}
	}
	return best
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Dataset bundles everything needed to benchmark one instance: the S3
// engines plus the converted UIT baseline.
type Dataset struct {
	Name  string
	In    *graph.Instance
	Ix    *index.Index
	Core  *core.Engine
	UIT   *topks.UIT
	TopkS *topks.Engine
	// BuildTime records how long indexing and conversion took.
	BuildTime time.Duration
}

// NewDataset builds the engines for an instance.
func NewDataset(name string, in *graph.Instance) *Dataset {
	start := time.Now()
	ix := index.Build(in)
	uit := topks.Convert(in)
	return &Dataset{
		Name:      name,
		In:        in,
		Ix:        ix,
		Core:      core.NewEngine(in, ix),
		UIT:       uit,
		TopkS:     topks.NewEngine(uit),
		BuildTime: time.Since(start),
	}
}

// KeywordIDs resolves query keyword strings to their dictionary ids (for
// the UIT baseline, which takes no semantic extension) as the S3k engine
// does (core.ResolveKeyword), dropping those the vocabulary lacks.
func (d *Dataset) KeywordIDs(kws []string) []dict.ID {
	var out []dict.ID
	for _, k := range kws {
		if _, id, ok := core.ResolveKeyword(d.In, k); ok {
			out = append(out, id)
		}
	}
	return out
}

// TimingStats summarises a set of durations the way Figure 7 plots them.
type TimingStats struct {
	Min, Q1, Median, Q3, Max, Mean time.Duration
}

// Quartiles computes the five-number summary (plus mean).
func Quartiles(ds []time.Duration) TimingStats {
	if len(ds) == 0 {
		return TimingStats{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return TimingStats{
		Min:    sorted[0],
		Q1:     at(0.25),
		Median: at(0.5),
		Q3:     at(0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / time.Duration(len(sorted)),
	}
}

// TimeS3k measures per-query S3k wall times over a workload.
func TimeS3k(d *Dataset, w Workload, opts core.Options) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(w.Queries))
	opts.K = w.ID.K
	for _, q := range w.Queries {
		start := time.Now()
		if _, _, err := d.Core.Search(q.Seeker, q.Keywords, opts); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// TimeTopkS measures per-query TopkS wall times over a workload.
func TimeTopkS(d *Dataset, w Workload, alpha float64) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(w.Queries))
	for _, q := range w.Queries {
		kws := d.KeywordIDs(q.Keywords)
		start := time.Now()
		if _, _, err := d.TopkS.Search(q.Seeker, kws, topks.Options{K: w.ID.K, Alpha: alpha}); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}
