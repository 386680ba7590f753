package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"s3"
	"s3/internal/core"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/score"
	"s3/internal/snap"
)

// How many served answers are compared with the in-process answer, and
// how many of those also with the brute-force oracle.
const (
	checkSamples = 64
	oracleChecks = 8
)

// reference is the in-process instance every served answer is judged
// against: the same dataset as an unsharded snapshot, opened once through
// the public API (for Search) and once through the internals (for the
// query-list generator, the oracle and the layer probes).
type reference struct {
	path string
	pub  *s3.Instance
	in   *graph.Instance
	ix   *index.Index
	eng  *core.Engine
	snap *snap.Snapshot
}

func openReference(path string) (*reference, error) {
	pub, err := s3.OpenSnapshot(path, s3.LoadMmap)
	if err != nil {
		return nil, err
	}
	s, err := snap.Open(path, snap.LoadMmap)
	if err != nil {
		pub.Close()
		return nil, err
	}
	return &reference{path: path, pub: pub, in: s.Instance, ix: s.Index,
		eng: core.NewEngine(s.Instance, s.Index), snap: s}, nil
}

func (r *reference) close() {
	_ = r.pub.Close()
	_ = r.snap.Close()
}

// servedResult mirrors the server's result object field for field, so
// that marshalling an in-process answer yields the bytes a correct server
// sends.
type servedResult struct {
	URI      string  `json:"uri"`
	Document string  `json:"document"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
}

// checkAnswers compares checkSamples served answers (chosen by seed among
// the successful samples) byte for byte with the reference instance's
// answer, and oracleChecks of them with core.Engine.Exhaustive the way
// TestS3kMatchesExhaustive does. Every reply flagged "exact": false is
// checked as well: no request sets a budget, so the flag is legitimate
// only where the reference search also ends on the precision floor (a
// seeker that cannot reach the matching components). It returns the
// number of wrong answers and a description of the first.
func checkAnswers(ref *reference, samples []sample, seed int64) (wrong int, first string) {
	var ok, inexact []int
	for i := range samples {
		switch {
		case samples[i].failed:
		case samples[i].exact:
			ok = append(ok, i)
		default:
			inexact = append(inexact, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	if len(ok) > checkSamples {
		ok = ok[:checkSamples]
	}
	ok = append(ok, inexact...)
	note := func(format string, args ...any) {
		wrong++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for n, i := range ok {
		s := &samples[i]
		q := s.req
		want, info, err := ref.pub.SearchInfoed(q.Seeker, q.Keywords, s3.WithK(q.K))
		if err != nil {
			note("reference search %s %v: %v", q.Seeker, q.Keywords, err)
			continue
		}
		if info.Exact != s.exact {
			note("served exact=%v, reference exact=%v for %s %v k=%d", s.exact, info.Exact, q.Seeker, q.Keywords, q.K)
			continue
		}
		rows := make([]servedResult, 0, len(want))
		for _, r := range want {
			rows = append(rows, servedResult{r.URI, r.Document, r.Lower, r.Upper})
		}
		wantJSON, err := json.Marshal(rows)
		if err != nil {
			note("marshal reference answer: %v", err)
			continue
		}
		if !bytes.Equal(bytes.TrimSpace(s.results), wantJSON) {
			note("served answer differs for %s %v k=%d:\n got  %s\n want %s", q.Seeker, q.Keywords, q.K, s.results, wantJSON)
			continue
		}
		if n < oracleChecks && s.exact {
			if msg := oracleCheck(ref, q, rows); msg != "" {
				note("oracle: %s %v k=%d: %s", q.Seeker, q.Keywords, q.K, msg)
			}
		}
	}
	return wrong, first
}

// oracleCheck holds an S3k answer against the exhaustive one. A top-k
// answer is a set that need not be unique under score ties, so the test
// is: every interval brackets its document's exact score, the sorted
// exact-score sequences agree, and the answers differ in size only by
// documents of vanishing score.
func oracleCheck(ref *reference, q *request, got []servedResult) string {
	const tol = 1e-6
	seeker, found := ref.in.NIDOf(q.Seeker)
	if !found {
		return "unknown seeker"
	}
	params := score.DefaultParams()
	groups, possible, err := ref.eng.KeywordGroups(q.Keywords)
	if err != nil {
		return err.Error()
	}
	if !possible {
		if len(got) != 0 {
			return "results for a query that cannot match"
		}
		return ""
	}
	prox := score.ExactProximity(ref.in, params, seeker, 1e-14)
	want, err := ref.eng.TopKWithProximity(q.Keywords, q.K, params, prox)
	if err != nil {
		return err.Error()
	}
	sc, err := score.NewScorer(ref.in, ref.ix, params, groups)
	if err != nil {
		return err.Error()
	}
	gotScores := make([]float64, len(got))
	for i, r := range got {
		d, found := ref.in.NIDOf(r.URI)
		if !found {
			return "unknown result " + r.URI
		}
		s := sc.Exact(d, prox)
		if s < r.Lower-tol || s > r.Upper+tol {
			return fmt.Sprintf("exact score %v of %s outside [%v, %v]", s, r.URI, r.Lower, r.Upper)
		}
		gotScores[i] = s
	}
	wantScores := make([]float64, len(want))
	for i, r := range want {
		wantScores[i] = r.Lower
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(gotScores)))
	sort.Sort(sort.Reverse(sort.Float64Slice(wantScores)))
	n := min(len(gotScores), len(wantScores))
	for i := 0; i < n; i++ {
		if math.Abs(gotScores[i]-wantScores[i]) > tol {
			return fmt.Sprintf("score sequences diverge at %d: %v vs %v", i, gotScores[i], wantScores[i])
		}
	}
	for _, extra := range append(gotScores[n:], wantScores[n:]...) {
		if extra > 1e-9 {
			return fmt.Sprintf("answers differ by a document of score %v", extra)
		}
	}
	return ""
}
