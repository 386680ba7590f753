// Package index precomputes the connection sets con(d, k) of the paper
// (§3.2). A connection of document d to keyword k is a tuple
// (type, f, src) with f ∈ Frag(d); the index stores each connection once as
// an *event* anchored at its fragment f — the tuple then applies to every
// ancestor-or-self d of f, with structural damping η^|pos(d,f)| applied by
// the scorer.
//
// Events arise from four rules, computed to a set-inclusion fixpoint:
//
//  1. containment — fragment f contains k: (S3:contains, f, d) ∈ con(d,k);
//     the source of a containment connection is the candidate d itself and
//     is therefore resolved dynamically by the scorer (Src = NoNID here);
//  2. tags — a tag by src carrying keyword k on fragment f yields
//     (S3:relatedTo, f, src); connections of higher-level tags (tags on
//     tags, R4) flow down the subject chain to the tagged fragment;
//  3. endorsements — a keyword-less tag by src on x inherits x's
//     connections with src as the new source (keeping the original
//     fragment, as in the paper's u5 example);
//  4. comments — if comment c on fragment f has a connection (t, f', src')
//     to k, every ancestor of f gains (S3:commentsOn, f, src'); for
//     containment connections of c the carried source is c's root (the
//     paper's d2 example). Comment chains propagate transitively; cycles
//     are tolerated (the fixpoint terminates because events form a set).
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"s3/internal/dict"
	"s3/internal/graph"
)

// ConnType is the type component of a connection tuple.
type ConnType uint8

const (
	// Contains connections come from rule 1; their source is the candidate
	// document itself.
	Contains ConnType = iota
	// RelatedTo connections come from tags and endorsements (rules 2-3).
	RelatedTo
	// CommentsOn connections come from comment propagation (rule 4).
	CommentsOn
)

func (t ConnType) String() string {
	switch t {
	case Contains:
		return "S3:contains"
	case RelatedTo:
		return "S3:relatedTo"
	case CommentsOn:
		return "S3:commentsOn"
	default:
		return "ConnType(?)"
	}
}

// Event is one connection anchored at fragment Frag: the tuple
// (Type, Frag, Src) belongs to con(d, k) for every d with Frag ∈ Frag(d).
// Src is graph.NoNID for Contains events (the source is d itself).
type Event struct {
	Frag graph.NID
	Src  graph.NID
	Type ConnType
}

// posting is the events of one keyword in canonical order, with what
// summarize reads off them.
type posting struct {
	evs []Event
	// lo and hi delimit, in the index's comps, the components holding an
	// event, ascending.
	lo, hi int32
	// maxRun is the most events in a single component; since every
	// connection of a single candidate d lives in d's component and η ≤ 1,
	// it bounds the connection mass Σ η^|pos| of any candidate for the
	// keyword (used for the §4 threshold).
	maxRun int32
}

// Index is the frozen connection index of an instance. It is immutable
// and safe for concurrent readers.
type Index struct {
	in   *graph.Instance
	byKw map[dict.ID]posting
	// comps holds every posting's component list, back to back.
	comps []int32
}

type eventKey struct {
	kw   dict.ID
	frag graph.NID
	src  graph.NID
	typ  ConnType
}

// tagEntry is one connection carried by a tag: keyword kw reaches
// fragment frag with source src.
type tagEntry struct {
	kw   dict.ID
	frag graph.NID
	src  graph.NID
}

// tagEntryKey dedups (tag, connection entry) pairs during the fixpoint.
type tagEntryKey struct {
	tag graph.NID
	tagEntry
}

type kwEvent struct {
	kw dict.ID
	ev Event
}

// kwFrag says "keyword kw is connected to fragment frag", by whatever
// type and source.
type kwFrag struct {
	kw   dict.ID
	frag graph.NID
}

// Build computes the connection fixpoint for an instance. Its cost is
// linear in the instance plus the events it produces: every list the
// fixpoint re-reads is consumed through a cursor, and no list holds an
// item twice.
func Build(in *graph.Instance) *Index {
	n := in.NumNodes()
	// The containment events — one per (node, keyword) — are a floor for
	// the event and pair sets.
	contained := 0
	for v := 0; v < n; v++ {
		contained += len(in.KeywordsOf(graph.NID(v)))
	}
	b := &ixBuilder{
		in:            in,
		seen:          make(map[eventKey]struct{}, contained),
		byKw:          make(map[dict.ID][]Event),
		perDoc:        make([][]kwEvent, n),
		pairs:         make([][]kwFrag, n),
		pairSeen:      make(map[kwFrag]struct{}, contained),
		tags:          make([]tagState, n),
		tagSeen:       make(map[tagEntryKey]struct{}, len(in.Tags())),
		commentCursor: make([]int, len(in.Comments())),
	}
	b.run()
	return b.freeze()
}

// ixBuilder is the state of the fixpoint. perDoc, pairs and tags are
// indexed by node id, commentCursor by position in in.Comments().
type ixBuilder struct {
	in   *graph.Instance
	seen map[eventKey]struct{}
	byKw map[dict.ID][]Event

	// perDoc[root] lists the events anchored in that document, for rule 4.
	perDoc [][]kwEvent
	// pairs[root] lists the distinct (keyword, fragment) pairs among
	// perDoc[root], in first-seen order, for rule 3: an endorser inherits a
	// connection once per pair, however many sources — the other
	// endorsers among them — reach the fragment with that keyword.
	pairs    [][]kwFrag
	pairSeen map[kwFrag]struct{}

	tags    []tagState
	tagSeen map[tagEntryKey]struct{}

	commentCursor []int // how much of perDoc[comment] the edge has carried over
	changed       bool
}

// tagState is the connections of one tag and how far the fixpoint has
// read the lists that feed and drain them.
type tagState struct {
	con []tagEntry
	// endorsed: an endorsement's offset into what it inherits from —
	// pairs[root of its subject], or the subject tag's con.
	endorsed int
	// flowed: how much of con has flowed out to the subject.
	flowed int
}

// insert adds k to set and reports whether it was absent — one probe of
// the table where a lookup followed by an assignment makes two.
func insert[K comparable](set map[K]struct{}, k K) bool {
	n := len(set)
	set[k] = struct{}{}
	return len(set) > n
}

func (b *ixBuilder) addEvent(kw dict.ID, ev Event) {
	if !insert(b.seen, eventKey{kw: kw, frag: ev.Frag, src: ev.Src, typ: ev.Type}) {
		return
	}
	b.byKw[kw] = append(b.byKw[kw], ev)
	root := b.in.DocRootOf(ev.Frag)
	b.perDoc[root] = append(b.perDoc[root], kwEvent{kw: kw, ev: ev})
	if p := (kwFrag{kw: kw, frag: ev.Frag}); insert(b.pairSeen, p) {
		b.pairs[root] = append(b.pairs[root], p)
	}
	b.changed = true
}

func (b *ixBuilder) addTagEntry(tag graph.NID, e tagEntry) {
	if !insert(b.tagSeen, tagEntryKey{tag: tag, tagEntry: e}) {
		return
	}
	b.tags[tag].con = append(b.tags[tag].con, e)
	b.changed = true
}

func (b *ixBuilder) run() {
	in := b.in

	// Rule 1: containment events. A keyword a node lists twice is one
	// event (addEvent deduplicates).
	var nodes []graph.NID
	for _, root := range in.DocRoots() {
		nodes = in.SubtreeOf(root, nodes[:0])
		for _, n := range nodes {
			for _, kw := range in.KeywordsOf(n) {
				b.addEvent(kw, Event{Frag: n, Src: graph.NoNID, Type: Contains})
			}
		}
	}

	// Rule 2 base: keyword tags contribute (kw, φ(tag), author) where
	// φ(tag) is the document node at the bottom of the subject chain.
	for _, tag := range in.Tags() {
		ti, _ := in.TagInfoOf(tag)
		if ti.Keyword == dict.NoID {
			continue
		}
		b.addTagEntry(tag, tagEntry{kw: ti.Keyword, frag: b.bottomFragment(tag), src: ti.Author})
	}

	// Fixpoint: endorsement inheritance, tag-chain flow and comment
	// propagation feed each other. A step reads each list from its cursor
	// to the length it had when the step reached it; what the step itself
	// appends is the next round's.
	for {
		b.changed = false
		b.stepTags()
		b.stepComments()
		if !b.changed {
			break
		}
	}
}

// bottomFragment walks the subject chain of a tag down to a document node.
func (b *ixBuilder) bottomFragment(tag graph.NID) graph.NID {
	cur := tag
	for b.in.KindOf(cur) == graph.KindTag {
		ti, _ := b.in.TagInfoOf(cur)
		cur = ti.Subject
	}
	return cur
}

func (b *ixBuilder) stepTags() {
	in := b.in
	for _, tag := range in.Tags() {
		ti, _ := in.TagInfoOf(tag)
		st := &b.tags[tag]
		onDoc := in.KindOf(ti.Subject) == graph.KindDocNode

		// Rule 3: endorsements inherit the subject's connections with the
		// endorser as source.
		if ti.Keyword == dict.NoID {
			if onDoc {
				list := b.pairs[in.DocRootOf(ti.Subject)]
				for _, p := range list[st.endorsed:] {
					if in.IsAncestorOrSelf(ti.Subject, p.frag) {
						b.addTagEntry(tag, tagEntry{kw: p.kw, frag: p.frag, src: ti.Author})
					}
				}
				st.endorsed = len(list)
			} else { // endorsement of a tag
				list := b.tags[ti.Subject].con
				for _, e := range list[st.endorsed:] {
					b.addTagEntry(tag, tagEntry{kw: e.kw, frag: e.frag, src: ti.Author})
				}
				st.endorsed = len(list)
			}
		}

		// Flow this tag's connections outwards: to the tagged fragment's
		// ancestors (as events) if the subject is a document node, or into
		// the subject tag (higher-level tags add their connections to the
		// thing they annotate).
		list := st.con
		for _, e := range list[st.flowed:] {
			if onDoc {
				b.addEvent(e.kw, Event{Frag: e.frag, Src: e.src, Type: RelatedTo})
			} else {
				b.addTagEntry(ti.Subject, e)
			}
		}
		st.flowed = len(list)
	}
}

func (b *ixBuilder) stepComments() {
	for ci, ce := range b.in.Comments() {
		list := b.perDoc[ce.Comment] // the comment is a document root
		for _, ke := range list[b.commentCursor[ci]:] {
			src := ke.ev.Src
			if ke.ev.Type == Contains {
				// The source of a containment connection of the comment is
				// the comment document itself.
				src = ce.Comment
			}
			b.addEvent(ke.kw, Event{Frag: ce.Target, Src: src, Type: CommentsOn})
		}
		b.commentCursor[ci] = len(list)
	}
}

// freeze sorts every keyword's events by (component, fragment, type,
// source) — a total order on the events of one keyword, so the frozen
// index depends on the set the fixpoint reached and not on the order it
// reached it in.
func (b *ixBuilder) freeze() *Index {
	in := b.in
	ix := newIndex(in, len(b.byKw))
	type keyed struct {
		comp int32
		ev   Event
	}
	var buf []keyed
	for kw, evs := range b.byKw {
		buf = buf[:0]
		for _, e := range evs {
			buf = append(buf, keyed{comp: in.CompOf(e.Frag), ev: e})
		}
		slices.SortFunc(buf, func(x, y keyed) int { return compareEvents(x.comp, x.ev, y.comp, y.ev) })
		for i, k := range buf {
			evs[i] = k.ev
		}
		if err := ix.add(kw, evs); err != nil {
			// addEvent filed each event once, so the sorted postings ascend.
			panic("index: internal error: " + err.Error())
		}
	}
	return ix
}

// newIndex returns an empty index over in with room for nkw postings.
func newIndex(in *graph.Instance, nkw int) *Index {
	return &Index{in: in, byKw: make(map[dict.ID]posting, nkw)}
}

// add files evs under kw, deriving the posting's component list (appended
// to ix.comps) and run bound with summarize. It refuses a second posting
// of kw.
func (ix *Index) add(kw dict.ID, evs []Event) error {
	lo := len(ix.comps)
	comps, maxRun, err := summarize(ix.in, evs, ix.comps)
	if err != nil {
		return fmt.Errorf("index: posting of keyword %d: %w", kw, err)
	}
	ix.comps = comps
	n := len(ix.byKw)
	ix.byKw[kw] = posting{evs: evs, lo: int32(lo), hi: int32(len(comps)), maxRun: int32(maxRun)}
	if len(ix.byKw) == n {
		return fmt.Errorf("index: duplicate posting for keyword %d", kw)
	}
	return nil
}

// summarize is the one derivation of a posting's component summary. It
// checks that evs, whose fragments must be nodes of in, lie in components
// (a user node has none) and are strictly in canonical order
// (compareEvents), appends their distinct components in event order to
// comps and returns it with the longest single-component run.
func summarize(in *graph.Instance, evs []Event, comps []int32) ([]int32, int, error) {
	var prev int32
	run, longest := 0, 0
	for i := range evs {
		c := in.CompOf(evs[i].Frag)
		switch {
		case c < 0:
			return nil, 0, fmt.Errorf("event fragment %d lies in no component", evs[i].Frag)
		case i == 0 || c > prev:
			comps = append(comps, c)
			run = 0
		case c < prev || !precedes(&evs[i-1], &evs[i]):
			return nil, 0, fmt.Errorf("events out of canonical order at %d", i)
		}
		run++
		longest = max(longest, run)
		prev = c
	}
	return comps, longest, nil
}

// compareEvents orders two events of one keyword, a in component ca and b
// in cb, by (component, fragment, type, source): the canonical order of a
// posting — total, since a posting holds each event once.
func compareEvents(ca int32, a Event, cb int32, b Event) int {
	switch {
	case ca != cb:
		return cmp.Compare(ca, cb)
	case a == b:
		return 0
	case precedes(&a, &b):
		return -1
	}
	return 1
}

// precedes reports whether a sorts strictly before b by (fragment, type,
// source): the canonical order within one component.
func precedes(a, b *Event) bool {
	if a.Frag != b.Frag {
		return a.Frag < b.Frag
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Src < b.Src
}

// Keywords returns the indexed keywords in ascending id order.
func (ix *Index) Keywords() []dict.ID {
	out := make([]dict.ID, 0, len(ix.byKw))
	for kw := range ix.byKw {
		out = append(out, kw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Events returns all events of an explicit keyword, sorted by component.
func (ix *Index) Events(k dict.ID) []Event { return ix.byKw[k].evs }

// EventsInComp returns the events of keyword k anchored in the given
// component: a binary search over the events by their fragments'
// components.
func (ix *Index) EventsInComp(k dict.ID, comp int32) []Event {
	evs := ix.byKw[k].evs
	lo := sort.Search(len(evs), func(i int) bool { return ix.in.CompOf(evs[i].Frag) >= comp })
	evs = evs[lo:]
	return evs[:sort.Search(len(evs), func(i int) bool { return ix.in.CompOf(evs[i].Frag) > comp })]
}

// Comps returns the sorted component ids containing at least one event of
// keyword k.
func (ix *Index) Comps(k dict.ID) []int32 {
	p := ix.byKw[k]
	return ix.comps[p.lo:p.hi:p.hi]
}

// MaxCompEvents returns the maximum number of events of k within a single
// component — an upper bound on |con(d, k)| for any candidate d.
func (ix *Index) MaxCompEvents(k dict.ID) int { return int(ix.byKw[k].maxRun) }

// CompsForGroups intersects, across keyword groups (each group being the
// semantic extension of one query keyword), the unions of components
// matching the group. A returned component contains at least one event for
// every query keyword — the §5.2 pruning grain.
func (ix *Index) CompsForGroups(groups [][]dict.ID) []int32 {
	if len(groups) == 0 {
		return nil
	}
	counts := make(map[int32]int)
	for _, group := range groups {
		inGroup := make(map[int32]struct{})
		for _, k := range group {
			for _, c := range ix.Comps(k) {
				inGroup[c] = struct{}{}
			}
		}
		for c := range inGroup {
			counts[c]++
		}
	}
	var out []int32
	for c, n := range counts {
		if n == len(groups) {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// CandidatesInComp returns the document nodes d of the component such that
// con(d, k) is non-empty for every query keyword (groups are extensions,
// as in CompsForGroups): for every group some event's fragment lies in d's
// subtree. Result is sorted.
func (ix *Index) CandidatesInComp(comp int32, groups [][]dict.ID) []graph.NID {
	return ix.AppendCandidatesInComp(nil, comp, groups, new(CandScratch))
}

// CandScratch is the working memory of AppendCandidatesInComp. A search
// enumerates one component after another; handing every call the same
// scratch makes the enumeration allocation-free once it has grown.
type CandScratch struct {
	covered []graph.NID
}

// AppendCandidatesInComp appends CandidatesInComp(comp, groups) to dst.
// The nodes covered by a group are gathered by walking up from each
// event's fragment, sorted and deduplicated; the first group's set is
// appended and every further one intersected into it in place, so the
// appended run is ascending.
func (ix *Index) AppendCandidatesInComp(dst []graph.NID, comp int32, groups [][]dict.ID, sc *CandScratch) []graph.NID {
	base := len(dst)
	for gi, group := range groups {
		covered := sc.covered[:0]
		for _, k := range group {
			for _, ev := range ix.EventsInComp(k, comp) {
				for d := ev.Frag; d != graph.NoNID; d = ix.in.ParentOf(d) {
					covered = append(covered, d)
				}
			}
		}
		slices.Sort(covered)
		sc.covered = covered
		covered = slices.Compact(covered)
		if gi == 0 {
			dst = append(dst, covered...)
		} else {
			dst = dst[:base+intersectSorted(dst[base:], covered)]
		}
		if len(dst) == base {
			break
		}
	}
	return dst
}

// intersectSorted keeps, at the front of a, the elements also in b (both
// ascending and duplicate-free) and returns how many there are.
func intersectSorted(a, b []graph.NID) int {
	n, j := 0, 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			a[n] = v
			n++
		}
	}
	return n
}

// ConOf reconstructs con(d, k') for one explicit keyword (diagnostics and
// tests; the scorer works from events directly).
func (ix *Index) ConOf(d graph.NID, k dict.ID) []Event {
	comp := ix.in.CompOf(d)
	var out []Event
	for _, ev := range ix.EventsInComp(k, comp) {
		if ix.in.IsAncestorOrSelf(d, ev.Frag) {
			out = append(out, ev)
		}
	}
	return out
}

// NumEvents returns the total number of indexed events.
func (ix *Index) NumEvents() int {
	total := 0
	for _, p := range ix.byKw {
		total += len(p.evs)
	}
	return total
}
