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

// kwList holds the events of one keyword sorted by component id, with the
// aligned comps slice enabling binary-searched per-component slicing.
type kwList struct {
	evs   []Event
	comps []int32
}

// Index is the frozen connection index of an instance. It is immutable
// and safe for concurrent readers.
type Index struct {
	in        *graph.Instance
	byKw      map[dict.ID]*kwList
	compsByKw map[dict.ID][]int32
	// maxCompEvents[k] = max over components of the number of events of k
	// in that component; since every connection of a single candidate d
	// lives in d's component and η ≤ 1, this bounds the connection mass
	// Σ η^|pos| of any candidate for k (used for the §4 threshold).
	maxCompEvents map[dict.ID]int
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
	ix := &Index{
		in:            in,
		byKw:          make(map[dict.ID]*kwList, len(b.byKw)),
		compsByKw:     make(map[dict.ID][]int32, len(b.byKw)),
		maxCompEvents: make(map[dict.ID]int, len(b.byKw)),
	}
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
		comps := make([]int32, len(evs))
		var uniq []int32
		maxRun, run := 0, 0
		for i, k := range buf {
			evs[i], comps[i] = k.ev, k.comp
			if i == 0 || comps[i] != comps[i-1] {
				uniq = append(uniq, comps[i])
				run = 0
			}
			run++
			if run > maxRun {
				maxRun = run
			}
		}
		ix.byKw[kw] = &kwList{evs: evs, comps: comps}
		ix.compsByKw[kw] = uniq
		ix.maxCompEvents[kw] = maxRun
	}
	return ix
}

// compareEvents orders two events of one keyword, a in component ca and b
// in cb, by (component, fragment, type, source): the canonical order of a
// posting — total, since a posting holds each event once.
func compareEvents(ca int32, a Event, cb int32, b Event) int {
	if ca != cb {
		return cmp.Compare(ca, cb)
	}
	if a.Frag != b.Frag {
		return cmp.Compare(a.Frag, b.Frag)
	}
	if a.Type != b.Type {
		return cmp.Compare(a.Type, b.Type)
	}
	return cmp.Compare(a.Src, b.Src)
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
func (ix *Index) Events(k dict.ID) []Event {
	if l := ix.byKw[k]; l != nil {
		return l.evs
	}
	return nil
}

// EventsInComp returns the events of keyword k anchored in the given
// component.
func (ix *Index) EventsInComp(k dict.ID, comp int32) []Event {
	l := ix.byKw[k]
	if l == nil {
		return nil
	}
	lo := sort.Search(len(l.comps), func(i int) bool { return l.comps[i] >= comp })
	hi := sort.Search(len(l.comps), func(i int) bool { return l.comps[i] > comp })
	return l.evs[lo:hi]
}

// Comps returns the sorted component ids containing at least one event of
// keyword k.
func (ix *Index) Comps(k dict.ID) []int32 { return ix.compsByKw[k] }

// MaxCompEvents returns the maximum number of events of k within a single
// component — an upper bound on |con(d, k)| for any candidate d.
func (ix *Index) MaxCompEvents(k dict.ID) int { return ix.maxCompEvents[k] }

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
	for _, l := range ix.byKw {
		total += len(l.evs)
	}
	return total
}
