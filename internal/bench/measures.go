package bench

import (
	"s3/internal/core"
	"s3/internal/dict"
	"s3/internal/graph"
	"s3/internal/topks"
)

// SpearmanL1 computes the paper's §5.4 list distance, Spearman's foot rule
// adapted to top-k lists:
//
//	L1(τ1,τ2) = 2(k−|τ1∩τ2|)(k+1) + Σ_{i∈τ1∩τ2} |τ1(i)−τ2(i)|
//	            − Σ_{τ∈{τ1,τ2}} Σ_{i∈τ∖(τ1∩τ2)} τ(i)
//
// with τ(i) the 1-based rank of item i. The result is normalised by the
// maximum distance k(k+1) of two disjoint lists, yielding a value in
// [0, 1] (0 = identical lists), matching the percentage figures of
// Figure 8. k is taken as max(len(τ1), len(τ2)); empty-vs-empty is 0.
func SpearmanL1(t1, t2 []graph.NID) float64 {
	k := len(t1)
	if len(t2) > k {
		k = len(t2)
	}
	if k == 0 {
		return 0
	}
	rank1 := ranks(t1)
	rank2 := ranks(t2)
	inter := 0
	var common, missing float64
	for it, r1 := range rank1 {
		if r2, ok := rank2[it]; ok {
			inter++
			d := r1 - r2
			if d < 0 {
				d = -d
			}
			common += float64(d)
		} else {
			missing += float64(r1)
		}
	}
	for it, r2 := range rank2 {
		if _, ok := rank1[it]; !ok {
			missing += float64(r2)
		}
	}
	l1 := float64(2*(k-inter)*(k+1)) + common - missing
	// The paper's formula assumes two full k-lists; with lists of unequal
	// length the normalised distance can leave [0, 1], so clamp.
	maxL1 := float64(k * (k + 1))
	if l1 < 0 {
		l1 = 0
	}
	if l1 > maxL1 {
		l1 = maxL1
	}
	return l1 / maxL1
}

func ranks(list []graph.NID) map[graph.NID]int {
	m := make(map[graph.NID]int, len(list))
	for i, it := range list {
		if _, dup := m[it]; !dup {
			m[it] = i + 1
		}
	}
	return m
}

// Intersection returns |τ1 ∩ τ2| / |τ1|: the fraction of S3k results that
// the baseline also returned (Figure 8's "intersection size"). Empty τ1
// yields 0.
func Intersection(t1, t2 []graph.NID) float64 {
	if len(t1) == 0 {
		return 0
	}
	set := make(map[graph.NID]struct{}, len(t2))
	for _, it := range t2 {
		set[it] = struct{}{}
	}
	n := 0
	for _, it := range t1 {
		if _, ok := set[it]; ok {
			n++
		}
	}
	return float64(n) / float64(len(t1))
}

// Quality holds the four §5.4 measures for one query (or averaged over a
// workload). All values are fractions in [0, 1].
type Quality struct {
	// GraphReach is the fraction of S3k candidate items that TopkS cannot
	// reach at all (no user tagged them with a query keyword — they are
	// reachable only through document-to-document links).
	GraphReach float64
	// SemReach is the ratio of candidates examined without semantic
	// expansion over candidates examined with it (high = extensions add
	// little; low = they open many documents).
	SemReach float64
	// L1 is the normalised Spearman foot rule between the two answers.
	L1 float64
	// Intersection is the fraction of S3k answers TopkS also returned.
	Intersection float64
	// Queries counts the measurements averaged into this value.
	Queries int
}

// CompareQuery runs both engines on one query and computes the §5.4
// measures. S3k answers (document fragments) are mapped to UIT items for
// comparison, as the paper does when relating the two result universes.
func CompareQuery(d *Dataset, q Query, k int, opts core.Options, alpha float64) (Quality, error) {
	var out Quality
	opts.K = k
	s3kRes, _, err := d.Core.Search(q.Seeker, q.Keywords, opts)
	if err != nil {
		return out, err
	}
	kws := d.KeywordIDs(q.Keywords)
	tkRes, _, err := d.TopkS.Search(q.Seeker, kws, topks.Options{K: k, Alpha: alpha})
	if err != nil {
		return out, err
	}

	s3kItems := make([]graph.NID, 0, len(s3kRes))
	seen := make(map[graph.NID]struct{})
	for _, r := range s3kRes {
		if item, ok := d.UIT.ItemOf(r.Doc); ok {
			if _, dup := seen[item]; !dup {
				seen[item] = struct{}{}
				s3kItems = append(s3kItems, item)
			}
		}
	}
	tkItems := make([]graph.NID, 0, len(tkRes))
	for _, r := range tkRes {
		tkItems = append(tkItems, r.Item)
	}
	out.L1 = SpearmanL1(s3kItems, tkItems)
	out.Intersection = Intersection(s3kItems, tkItems)

	// Graph reachability (§5.4): the fraction of S3k candidates that the
	// TopkS *search* cannot reach. TopkS explores outwards from the
	// seeker along user-user edges only, then looks at the visited users'
	// tags; an item is reachable iff some user with a query-keyword
	// triple on it is socially connected to the seeker. S3k additionally
	// follows document-to-document and tag links, so it reaches more.
	groups, possible, err := d.Core.KeywordGroups(q.Keywords)
	if err != nil {
		return out, err
	}
	if possible {
		reachableUsers := d.TopkS.BestPathProx(q.Seeker)
		tkReachable := make(map[graph.NID]struct{})
		for u, p := range reachableUsers {
			if p <= 0 {
				continue
			}
			for _, ik := range d.UIT.TriplesOf(u) {
				for _, kw := range kws {
					if ik.Kw == kw {
						tkReachable[ik.Item] = struct{}{}
					}
				}
			}
		}
		candItems := make(map[graph.NID]struct{})
		for _, comp := range d.Ix.CompsForGroups(groups) {
			for _, c := range d.Ix.CandidatesInComp(comp, groups) {
				if item, ok := d.UIT.ItemOf(c); ok {
					candItems[item] = struct{}{}
				}
			}
		}
		if len(candItems) > 0 {
			unreach := 0
			for it := range candItems {
				if _, ok := tkReachable[it]; !ok {
					unreach++
				}
			}
			out.GraphReach = float64(unreach) / float64(len(candItems))
		}

		// Semantic reachability: candidates without expansion vs with. A
		// query with no candidates either way has no expansion effect and
		// counts as 1.
		bare := make([][]dict.ID, 0, len(kws))
		for _, kw := range kws {
			bare = append(bare, []dict.ID{kw})
		}
		withExt := d.Core.CandidateCount(groups)
		if withExt > 0 {
			out.SemReach = float64(d.Core.CandidateCount(bare)) / float64(withExt)
		} else {
			out.SemReach = 1
		}
	} else {
		out.SemReach = 1
	}
	out.Queries = 1
	return out, nil
}

// CompareWorkload averages CompareQuery over a workload.
func CompareWorkload(d *Dataset, w Workload, opts core.Options, alpha float64) (Quality, error) {
	var acc Quality
	for _, q := range w.Queries {
		r, err := CompareQuery(d, q, w.ID.K, opts, alpha)
		if err != nil {
			return acc, err
		}
		acc.GraphReach += r.GraphReach
		acc.SemReach += r.SemReach
		acc.L1 += r.L1
		acc.Intersection += r.Intersection
		acc.Queries++
	}
	if acc.Queries > 0 {
		n := float64(acc.Queries)
		acc.GraphReach /= n
		acc.SemReach /= n
		acc.L1 /= n
		acc.Intersection /= n
	}
	return acc, nil
}
