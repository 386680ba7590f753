// The round loop of S3k.
//
// An S3k search is a sequence of rounds: advance the seeker's proximity
// exploration one layer, admit newly discovered matching components,
// refresh the candidates' score intervals and compute the greedy
// selection, then evaluate the stop condition of Algorithm 2. This file
// states a round as the ShardExecutor interface with its round messages,
// and holds the only loop that runs it: Coordinate. Every search —
// Engine.Search over one instance or a shard set's merged index, and a
// distributed coordinator's over the postings its workers sent — is
// Engine.Run: Coordinate over one LocalExecutor.
//
// Coordinate still accepts several executors over component-disjoint
// indexes, each exploring on its own, and merges their kept lists with
// one sort by score interval; only the benchmark's probes run it that
// way. Everything the loop needs from an executor fits in a few dozen
// bytes per round: the selection is at most k candidates, and the stop
// decision needs only aggregates (admitted counts, the dominating bound,
// the iterator's tail bounds).
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/obs"
	"s3/internal/score"
)

// SearchSpec describes one search to an executor. All fields are plain
// values resolved against the instance (keyword groups are dictionary ids,
// identical in every process mapping the same manifest).
type SearchSpec struct {
	// Seeker is the querying user node.
	Seeker graph.NID
	// Groups are the resolved keyword groups: Groups[i] is the semantic
	// extension of the i-th query keyword (Definition 2.1).
	Groups [][]dict.ID
	// K is the number of results.
	K int
	// Params are the damping factors (γ, η).
	Params score.Params
	// Epsilon is the finite-precision tie-breaking margin of Theorem 4.2.
	// Coordinate resolves 0 to the default 1e-12 before any executor sees
	// the spec.
	Epsilon float64
}

// CandMeta is the summary of one candidate: everything the merge and the
// stop decision read. The canonical order over CandMeta (upper bound
// descending, ties by node id) equals the executors' candidate order,
// which is what keeps merged selections byte-identical however the
// components are split.
type CandMeta struct {
	Doc          graph.NID
	Lower, Upper float64
}

// metaBefore is candBefore over candidate summaries.
func metaBefore(a, b CandMeta) bool {
	if a.Upper != b.Upper {
		return a.Upper > b.Upper
	}
	return a.Doc < b.Doc
}

// BeginInfo is an executor's response to Begin: what Coordinate needs to
// size the search and build the threshold.
type BeginInfo struct {
	// Matched is the number of the index's components matching every
	// query keyword.
	Matched int
	// GroupMasses[gi][j] is MaxCompEvents of Groups[gi][j] in the
	// executor's index. Coordinate takes the element-wise maximum across
	// executors — exactly the bound one index over their union computes,
	// since their components are disjoint.
	GroupMasses [][]int32
}

// RoundInfo is an executor's response to one round (or to Finalize): its
// selection plus the aggregates of the stop decision.
type RoundInfo struct {
	// Kept is the executor's greedy selection, best-first (at most k).
	Kept []CandMeta
	// Uncertain is the first candidate whose relative order is still
	// unresolved (nil when the selection is trustworthy).
	Uncertain *CandMeta
	// MaxOther is the best upper bound among the executor's candidates
	// that are outside Kept and not certainly dominated by a kept
	// neighbour.
	MaxOther float64
	// Admitted and Candidates are cumulative counts for this search.
	Admitted   int
	Candidates int
	// Reached is the cumulative number of nodes discovered by the
	// proximity exploration.
	Reached int
	// N, Tail, SourceTail and Done describe the iterator after this
	// round's step: exploration depth, B>n, the unexplored-component
	// source bound, and whether the reachable graph is exhausted. They
	// depend on the depth alone, so Coordinate cross-checks N and Done
	// across executors to catch a divergent one.
	N          int
	Tail       float64
	SourceTail float64
	Done       bool
}

// ShardExecutor runs the rounds of one search over one index. A search is
// one Begin, any number of Rounds, at most one Finalize, and exactly one
// End (which must be called on every path, including errors). Executors
// are single-search and not safe for concurrent calls.
type ShardExecutor interface {
	// Begin installs the search and reports the index's matched
	// components and threshold masses.
	Begin(spec SearchSpec) (BeginInfo, error)
	// Round advances the proximity exploration one layer, admits newly
	// discovered matching components, refreshes candidate bounds at the
	// new tail and recomputes the selection.
	Round() (RoundInfo, error)
	// Finalize recomputes bounds and the selection at the current tail
	// without advancing the exploration — the non-threshold stops
	// (exhaustion, budget, precision) take the greedy prefix as-is.
	Finalize() (RoundInfo, error)
	// End releases the search's state.
	End()
}

// CoordOptions configure one run of Coordinate.
type CoordOptions struct {
	// Ctx, when non-nil, cancels the search: it is checked before every
	// round, so a disconnected client stops the search at the next round
	// boundary with Ctx's error (the deferred Ends still run, returning
	// the iterators to their pool).
	Ctx context.Context
	// MaxIterations and Budget are the any-time stop bounds (0 = none).
	MaxIterations int
	Budget        time.Duration
	// Start anchors the budget clock (the caller's search start).
	Start time.Time
	// Trace, when non-nil, gets the search's round count and stop reason
	// as attributes of its root span. The stage spans (begin, each round,
	// finalize) are recorded by the executor that does the work: Engine.Run
	// hands its LocalExecutor the same root. Tracing is observational
	// only: it never changes the answer.
	Trace *obs.Trace
	// Obs, when non-nil, receives the search's metrics observations
	// (rounds per search, per-round latency).
	Obs *obs.SearchMetrics
}

// Coordinate is the S3k round loop (Algorithm 1) and the only place the
// stop test (Algorithm 2) is evaluated: it runs each round on the
// executors, merges their selections, and decides whether a provably
// correct top-k exists. It returns the selection (best-first) and the
// search stats; the caller resolves URIs. Every executor is Ended on
// every path. It starts no goroutines.
//
// The answer — documents, order and score intervals — is byte-identical
// for any conforming executor set over the same instance, however its
// components are split between the executors' indexes: every connection
// of a candidate lives in the candidate's component, and vertical
// neighbours share a component, so the per-executor selections, their
// certainty and the dominating-bound test decompose exactly.
func Coordinate(execs []ShardExecutor, spec SearchSpec, copts CoordOptions) ([]CandMeta, Stats, error) {
	var stats Stats
	start := copts.Start
	if start.IsZero() {
		start = time.Now()
	}
	if spec.Epsilon == 0 {
		spec.Epsilon = 1e-12
	}
	root := copts.Trace.Span()
	defer func() {
		for _, ex := range execs {
			ex.End()
		}
	}()

	begins := make([]BeginInfo, len(execs))
	var err error
	for i, ex := range execs {
		if begins[i], err = ex.Begin(spec); err != nil {
			return nil, stats, err
		}
	}
	totalMatched := 0
	for _, b := range begins {
		totalMatched += b.Matched
	}
	stats.ComponentsMatched = totalMatched
	if totalMatched == 0 {
		stats.Reason = StopNoMatch
		stats.Elapsed = time.Since(start)
		root.SetAttr("stop", string(StopNoMatch))
		return nil, stats, nil
	}
	threshold, err := thresholdFromMasses(spec.Groups, begins)
	if err != nil {
		return nil, stats, err
	}

	infos := make([]RoundInfo, len(execs))
	merge := newMergeScratch(len(execs))
	finish := func(sel []CandMeta, reason StopReason) ([]CandMeta, Stats, error) {
		stats.Reason = reason
		stats.Candidates = 0
		for _, info := range infos {
			stats.Candidates += info.Candidates
		}
		stats.Elapsed = time.Since(start)
		root.SetInt("rounds", int64(stats.Iterations))
		root.SetAttr("stop", string(reason))
		if copts.Obs != nil {
			copts.Obs.Rounds.Observe(float64(stats.Iterations))
		}
		return sel, stats, nil
	}
	finalize := func() ([]CandMeta, error) {
		for i, ex := range execs {
			var err error
			if infos[i], err = ex.Finalize(); err != nil {
				return nil, err
			}
		}
		sel, _ := merge.mergedSelect(infos, spec.K)
		return sel, nil
	}

	n, done := 0, false
	for {
		if copts.Ctx != nil {
			if err := copts.Ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		if done {
			sel, err := finalize()
			if err != nil {
				return nil, stats, err
			}
			return finish(sel, StopExhausted)
		}
		if (copts.MaxIterations > 0 && n >= copts.MaxIterations) ||
			(copts.Budget > 0 && time.Since(start) > copts.Budget) {
			sel, err := finalize()
			if err != nil {
				return nil, stats, err
			}
			return finish(sel, StopBudget)
		}

		var roundStart time.Time
		if copts.Obs != nil {
			roundStart = time.Now()
		}
		for i, ex := range execs {
			if infos[i], err = ex.Round(); err != nil {
				return nil, stats, err
			}
		}
		n, done = infos[0].N, infos[0].Done
		admitted := 0
		for i, info := range infos {
			if info.N != n || info.Done != done {
				return nil, stats, fmt.Errorf("core: shard executor %d diverged (round %d/%d, done %v/%v)", i, info.N, n, info.Done, done)
			}
			admitted += info.Admitted
			if info.Reached > stats.NodesReached {
				stats.NodesReached = info.Reached
			}
		}
		stats.Iterations = n
		stats.ComponentsReached = admitted
		tail, sourceTail := infos[0].Tail, infos[0].SourceTail

		// Once every matching component has been discovered, no document
		// outside the candidate set can ever match the query.
		thr := 0.0
		if admitted < totalMatched {
			thr = threshold(sourceTail)
		}
		selection, certain := merge.mergedSelect(infos, spec.K)

		// The round's latency covers the executors' rounds and the merge;
		// the stop decision below is a handful of comparisons.
		if copts.Obs != nil {
			copts.Obs.RoundSeconds.Observe(time.Since(roundStart).Seconds())
		}

		// The answer is final when the selection is trustworthy, cannot
		// grow from still-undiscovered components (which can only matter
		// while the threshold is non-negligible), and provably dominates
		// every other candidate as well as anything undiscovered.
		mayGrow := len(selection) < spec.K && thr > spec.Epsilon
		if certain && !mayGrow {
			if len(selection) > 0 {
				minLower := math.Inf(1)
				for _, c := range selection {
					minLower = math.Min(minLower, c.Lower)
				}
				maxOther := mergedMaxOtherMeta(infos, selection)
				gate := minLower + spec.Epsilon
				if maxOther <= gate && thr <= gate {
					return finish(selection, StopThreshold)
				}
			} else if thr <= spec.Epsilon {
				// Nothing can ever score above zero.
				return finish(selection, StopThreshold)
			}
		}

		// Finite-precision tie breaking (Theorem 4.2): when the remaining
		// uncertainty is below the floating-point noise floor, further
		// exploration cannot separate candidates or surface new ones. This
		// guard must be reachable on *every* round — matched components
		// disconnected from the seeker would otherwise keep the search
		// spinning forever (the border cycles and never empties on cyclic
		// graphs).
		if tail < 1e-15 {
			sel, err := finalize()
			if err != nil {
				return nil, stats, err
			}
			return finish(sel, StopPrecision)
		}
	}
}

// thresholdFromMasses builds Bscore (score.Bscore) over the whole shard
// set from the per-shard Begin responses: per query keyword, the
// per-component event-count bound is the maximum across shards.
func thresholdFromMasses(groups [][]dict.ID, begins []BeginInfo) (func(B float64) float64, error) {
	masses := make([]int, len(groups))
	for gi, group := range groups {
		for j := range group {
			m := int32(0)
			for i, b := range begins {
				if len(b.GroupMasses) != len(groups) || len(b.GroupMasses[gi]) != len(group) {
					return nil, fmt.Errorf("core: shard executor %d returned malformed threshold masses", i)
				}
				if v := b.GroupMasses[gi][j]; v > m {
					m = v
				}
			}
			masses[gi] += int(m)
		}
	}
	return func(B float64) float64 { return score.Bscore(masses, B) }, nil
}

// mergeScratch owns one search's merge buffer: the members' kept lists
// are appended to it and sorted, round after round, so the steady-state
// round loop merges without allocating.
type mergeScratch struct {
	buf []CandMeta
}

// newMergeScratch returns a scratch for n members; the buffer grows to
// the largest round's n·k kept candidates at most.
func newMergeScratch(n int) *mergeScratch {
	return &mergeScratch{buf: make([]CandMeta, 0, n)}
}

// mergedSelect combines the members' greedy selections into the global
// one: their kept lists, sorted by score interval, are walked until k are
// selected or the earliest member-local uncertainty point is reached,
// exactly where the single-engine walk over the union would stop
// (vertical-neighbour interactions never cross members). The returned
// slice shares the scratch's buffer: valid until the next mergedSelect on
// the same scratch.
func (m *mergeScratch) mergedSelect(infos []RoundInfo, k int) ([]CandMeta, bool) {
	m.buf = m.buf[:0]
	var uncertain *CandMeta
	for i := range infos {
		m.buf = append(m.buf, infos[i].Kept...)
		if u := infos[i].Uncertain; u != nil && (uncertain == nil || metaBefore(*u, *uncertain)) {
			uncertain = u
		}
	}
	slices.SortFunc(m.buf, func(a, b CandMeta) int {
		if metaBefore(a, b) {
			return -1
		}
		if metaBefore(b, a) {
			return 1
		}
		return 0
	})
	merged := m.buf[:min(k, len(m.buf))]
	if uncertain == nil {
		return merged, true
	}
	for i, c := range merged {
		if !metaBefore(c, *uncertain) {
			// The single-engine walk would reach the uncertain candidate
			// before selecting c: the selection stops here, untrusted.
			return merged[:i], false
		}
	}
	if len(merged) == k {
		return merged, true
	}
	return merged, false
}

// mergedMaxOtherMeta computes the §4 dominating bound over the whole
// candidate set from the per-shard round responses: each shard's local
// MaxOther, folded with the kept candidates the merge did not consume
// (which are "others" globally). Documents belong to exactly one shard,
// so doc-id membership in the merged selection is exact; sel is at most
// k entries, so the membership check is a linear scan rather than a
// per-round map allocation — and only runs for candidates that would
// actually raise the bound.
func mergedMaxOtherMeta(infos []RoundInfo, sel []CandMeta) float64 {
	maxOther := 0.0
	for i := range infos {
		if infos[i].MaxOther > maxOther {
			maxOther = infos[i].MaxOther
		}
	kept:
		for _, c := range infos[i].Kept {
			if c.Upper <= maxOther {
				continue
			}
			for j := range sel {
				if sel[j].Doc == c.Doc {
					continue kept
				}
			}
			maxOther = c.Upper
		}
	}
	return maxOther
}

// ResolveKeyword resolves one raw query keyword to the vocabulary term it
// names. §2 puts URIs (and hashtags) in the keyword space verbatim, so a
// keyword the vocabulary holds as it stands is that term; any other goes
// through the instance's analyzer and names its first stem. term is ""
// when the analyzer keeps nothing of the keyword (a stop word); ok
// reports whether the vocabulary holds term, and id is then its
// dictionary id. Every query path resolves its keywords here.
func ResolveKeyword(in *graph.Instance, kw string) (term string, id dict.ID, ok bool) {
	if id, ok := in.Dict().Lookup(kw); ok {
		return kw, id, true
	}
	stems := in.Analyzer().Keywords(kw)
	if len(stems) == 0 {
		return "", 0, false
	}
	id, ok = in.Dict().Lookup(stems[0])
	return stems[0], id, ok
}

// ResolveKeywordGroups resolves raw query keywords to their stemmed
// semantic extensions over an instance's shared substrate (dictionary +
// saturated ontology); see Engine.KeywordGroups. The substrate is
// identical in every process mapping the same snapshot, so a coordinator
// may resolve once and ship dictionary ids to shard executors.
func ResolveKeywordGroups(in *graph.Instance, keywords []string) ([][]dict.ID, bool, error) {
	var groups [][]dict.ID
	for _, kw := range keywords {
		term, id, ok := ResolveKeyword(in, kw)
		switch {
		case term == "":
			continue
		case !ok:
			return nil, false, nil
		}
		groups = append(groups, in.Ontology().Ext(id))
	}
	if len(groups) == 0 {
		return nil, false, fmt.Errorf("core: query has no usable keywords")
	}
	return groups, true, nil
}
