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
//
// No rule leaves a §5.2 component. The components are the connected
// components over partOf, commentsOn and hasSubject (graph.Instance.CompOf),
// and every rule moves a connection along one of those edges only: up a
// document tree, from a tag to its subject, from a comment to its target.
// An event is anchored in the component of the document or tag it was
// read from, and a rule reads only the events and tag connections of one
// component. The fixpoint of an instance is therefore the union of its
// components' fixpoints, and Build computes them one component at a time.
package index

import (
	"cmp"
	"fmt"
	"slices"

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

// Index is the frozen connection index of an instance: the flat form it
// was built or opened from, plus the component summaries FromFlat derives
// from it. It is immutable and safe for concurrent readers.
type Index struct {
	in *graph.Instance
	f  Flat
	// comps holds every posting's component list back to back, each
	// ascending: posting i's is comps[compOff[i]:compOff[i+1]]. first[j]
	// is where, in f.Evs, the events of comps[j] start; the run ends where
	// the next one starts, and first ends with the sentinel len(f.Evs).
	comps, compOff, first []int32
}

// kwEvent is an event of keyword kw.
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

// tagEntry is one connection carried by a tag — keyword kw reaches
// fragment frag with source src — the tag named by its position in its
// component.
type tagEntry struct {
	tag  int32
	kw   dict.ID
	frag graph.NID
	src  graph.NID
}

func (k kwEvent) hash() uint64 {
	return hash2(uint64(k.kw)<<32|uint64(uint32(k.ev.Frag)), uint64(uint32(k.ev.Src))<<8|uint64(k.ev.Type))
}

func (k kwFrag) hash() uint64 { return hash2(uint64(k.kw), uint64(uint32(k.frag))) }

func (k tagEntry) hash() uint64 {
	return hash2(uint64(uint32(k.tag))<<32|uint64(k.kw), uint64(uint32(k.frag))<<32|uint64(uint32(k.src)))
}

// hash2 mixes two words into a hash whose low bits are as good as its
// high ones (a splitmix64-style finaliser).
func hash2(a, b uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// tagItem is a tag and its description.
type tagItem struct {
	node graph.NID
	info graph.TagInfo
}

// Build computes the connection fixpoint for an instance, one component
// at a time in ascending component id. No rule leaves a component (see the
// package doc), so a component's fixpoint is final once reached: its
// events, sorted by (keyword, fragment, type, source), are appended to the
// output, which therefore lists each keyword's events in canonical order
// without a sort across components. Its cost is linear in the instance
// plus the events it produces, beside one sort of each component's events:
// every list the fixpoint re-reads is consumed through a cursor, no list
// holds an item twice, and the working sets hold one component.
func Build(in *graph.Instance) *Index {
	b := newBuilder(in)
	for c := range in.NumComponents() {
		b.component(c)
	}
	return b.freeze()
}

// builder is the state of the fixpoint.
type builder struct {
	in *graph.Instance

	// The document roots, tags and comment edges bucketed by component,
	// each in instance order: component c's roots are
	// roots[rootOff[c]:rootOff[c+1]], and likewise for tags and coms.
	// local[v] is a root's or a tag's position in its component's bucket.
	rootOff, tagOff, comOff []int32
	roots                   []graph.NID
	tags                    []tagItem
	coms                    []graph.CommentEdge
	local                   []int32

	// The component being computed. evs is its events, threaded by
	// document root for rule 4; pairs the distinct (keyword, fragment)
	// pairs among them, by root, for rule 3: an endorser inherits a
	// connection once per pair, however many sources — the other endorsers
	// among them — reach the fragment with that keyword; ents the tags'
	// connections, by tag.
	ctags   []tagItem
	evs     ownedSet[kwEvent]
	pairs   ownedSet[kwFrag]
	ents    ownedSet[tagEntry]
	tagCur  []tagCursor
	comCur  []int32 // per comment edge: the last of the comment's events it carried over
	nodes   []graph.NID
	changed bool

	// out is the events of the components done so far, component by
	// component, each component's sorted by (keyword, fragment, type,
	// source); count[kw] is how many are kw's.
	out   []kwEvent
	count []int32
}

// tagCursor is how far the fixpoint has read the lists that feed and
// drain one tag's connections: the last item of each it has read, -1 for
// none.
type tagCursor struct {
	// endorsed: an endorsement's cursor into what it inherits from — the
	// pairs of its subject's document, or the subject tag's connections.
	endorsed int32
	// flowed: the last of its connections that has flowed out to the
	// subject.
	flowed int32
}

// newBuilder buckets the roots, tags and comment edges by component, and
// refuses an instance where a tag's subject or a comment's target lies in
// another component than the tag or the comment: the components are built
// to rule that out, and the per-component fixpoint rests on it.
func newBuilder(in *graph.Instance) *builder {
	b := &builder{in: in, local: make([]int32, in.NumNodes()), count: make([]int32, in.Dict().Len())}
	tags := make([]tagItem, len(in.Tags()))
	for i, t := range in.Tags() {
		ti, _ := in.TagInfoOf(t)
		if in.CompOf(ti.Subject) != in.CompOf(t) {
			panic(fmt.Sprintf("index: internal error: tag %d and its subject %d lie in two components", t, ti.Subject))
		}
		tags[i] = tagItem{node: t, info: ti}
	}
	for _, ce := range in.Comments() {
		if in.CompOf(ce.Target) != in.CompOf(ce.Comment) {
			panic(fmt.Sprintf("index: internal error: comment %d and its target %d lie in two components", ce.Comment, ce.Target))
		}
	}
	b.rootOff, b.roots = bucket(in, in.DocRoots(), func(r graph.NID) graph.NID { return r }, b.local)
	b.tagOff, b.tags = bucket(in, tags, func(t tagItem) graph.NID { return t.node }, b.local)
	b.comOff, b.coms = bucket(in, in.Comments(), func(ce graph.CommentEdge) graph.NID { return ce.Comment }, nil)
	return b
}

// bucket lays items out by the component of node(item) in one counting
// pass: those of component c are out[off[c]:off[c+1]], in their order in
// items. If local is not nil, local[node(item)] is set to the item's
// position in its bucket.
func bucket[T any](in *graph.Instance, items []T, node func(T) graph.NID, local []int32) (off []int32, out []T) {
	nc := in.NumComponents()
	// Counted at c+2 and summed, off[c+1] is where component c starts, and
	// it advances as c's items are placed.
	off = make([]int32, nc+2)
	for _, it := range items {
		off[in.CompOf(node(it))+2]++
	}
	for c := 2; c < len(off); c++ {
		off[c] += off[c-1]
	}
	out = make([]T, len(items))
	for _, it := range items {
		c := in.CompOf(node(it)) + 1
		out[off[c]] = it
		off[c]++
	}
	off = off[:nc+1]
	if local != nil {
		for c := range nc {
			for i := off[c]; i < off[c+1]; i++ {
				local[node(out[i])] = i - off[c]
			}
		}
	}
	return off, out
}

// component computes the fixpoint of component c and appends its events to
// the output.
func (b *builder) component(c int) {
	in := b.in
	roots := b.roots[b.rootOff[c]:b.rootOff[c+1]]
	b.ctags = b.tags[b.tagOff[c]:b.tagOff[c+1]]
	coms := b.coms[b.comOff[c]:b.comOff[c+1]]
	b.evs.reset(len(roots))
	b.pairs.reset(len(roots))
	b.ents.reset(len(b.ctags))
	b.tagCur = fill(b.tagCur, len(b.ctags), tagCursor{endorsed: -1, flowed: -1})
	b.comCur = fill(b.comCur, len(coms), -1)

	// Rule 1: containment events. A keyword a node lists twice is one
	// event (addEvent deduplicates).
	for _, root := range roots {
		b.nodes = in.SubtreeOf(root, b.nodes[:0])
		for _, n := range b.nodes {
			for _, kw := range in.KeywordsOf(n) {
				b.addEvent(kw, Event{Frag: n, Src: graph.NoNID, Type: Contains})
			}
		}
	}

	// Rule 2 base: keyword tags contribute (kw, φ(tag), author) where
	// φ(tag) is the document node at the bottom of the subject chain.
	for i, t := range b.ctags {
		if t.info.Keyword == dict.NoID {
			continue
		}
		b.addTagEntry(tagEntry{tag: int32(i), kw: t.info.Keyword, frag: b.bottomFragment(t.info.Subject), src: t.info.Author})
	}

	// Fixpoint: endorsement inheritance, tag-chain flow and comment
	// propagation feed each other. A step reads each list from its cursor
	// to its end, what the step itself appends included.
	for {
		b.changed = false
		b.stepTags()
		b.stepComments(coms)
		if !b.changed {
			break
		}
	}

	// The fixpoint is reached: the set's hash index is done with, so its
	// items may be sorted in place.
	slices.SortFunc(b.evs.items, func(x, y kwEvent) int {
		switch {
		case x.kw != y.kw:
			return cmp.Compare(x.kw, y.kw)
		case x.ev == y.ev:
			return 0
		case precedes(&x.ev, &y.ev):
			return -1
		}
		return 1
	})
	for _, ke := range b.evs.items {
		b.count[ke.kw]++
	}
	b.out = append(b.out, b.evs.items...)
}

// addEvent adds an event of the component, threaded by its document root.
func (b *builder) addEvent(kw dict.ID, ev Event) {
	root := b.local[b.in.DocRootOf(ev.Frag)]
	if !b.evs.add(root, kwEvent{kw: kw, ev: ev}) {
		return
	}
	b.pairs.add(root, kwFrag{kw: kw, frag: ev.Frag})
	b.changed = true
}

func (b *builder) addTagEntry(e tagEntry) {
	if b.ents.add(e.tag, e) {
		b.changed = true
	}
}

// bottomFragment walks a subject chain of the component down to a
// document node.
func (b *builder) bottomFragment(subject graph.NID) graph.NID {
	for b.in.KindOf(subject) == graph.KindTag {
		subject = b.ctags[b.local[subject]].info.Subject
	}
	return subject
}

func (b *builder) stepTags() {
	in := b.in
	for i, t := range b.ctags {
		tag, ti, cur := int32(i), t.info, &b.tagCur[i]
		onDoc := in.KindOf(ti.Subject) == graph.KindDocNode

		// Rule 3: endorsements inherit the subject's connections with the
		// endorser as source.
		if ti.Keyword == dict.NoID {
			if onDoc {
				root := b.local[in.DocRootOf(ti.Subject)]
				for p := b.pairs.after(root, cur.endorsed); p >= 0; p = b.pairs.next[p] {
					cur.endorsed = p
					if pf := b.pairs.items[p]; in.IsAncestorOrSelf(ti.Subject, pf.frag) {
						b.addTagEntry(tagEntry{tag: tag, kw: pf.kw, frag: pf.frag, src: ti.Author})
					}
				}
			} else { // endorsement of a tag
				for p := b.ents.after(b.local[ti.Subject], cur.endorsed); p >= 0; p = b.ents.next[p] {
					cur.endorsed = p
					e := b.ents.items[p]
					e.tag, e.src = tag, ti.Author
					b.addTagEntry(e)
				}
			}
		}

		// Flow this tag's connections outwards: to the tagged fragment's
		// ancestors (as events) if the subject is a document node, or into
		// the subject tag (higher-level tags add their connections to the
		// thing they annotate).
		for p := b.ents.after(tag, cur.flowed); p >= 0; p = b.ents.next[p] {
			cur.flowed = p
			e := b.ents.items[p]
			if onDoc {
				b.addEvent(e.kw, Event{Frag: e.frag, Src: e.src, Type: RelatedTo})
			} else {
				e.tag = b.local[ti.Subject]
				b.addTagEntry(e)
			}
		}
	}
}

func (b *builder) stepComments(coms []graph.CommentEdge) {
	for i, ce := range coms {
		root := b.local[ce.Comment] // the comment is a document root
		for p := b.evs.after(root, b.comCur[i]); p >= 0; p = b.evs.next[p] {
			b.comCur[i] = p
			ke := b.evs.items[p]
			src := ke.ev.Src
			if ke.ev.Type == Contains {
				// The source of a containment connection of the comment is
				// the comment document itself.
				src = ce.Comment
			}
			b.addEvent(ke.kw, Event{Frag: ce.Target, Src: src, Type: CommentsOn})
		}
	}
}

// freeze lays the output out as the flat form — keywords ascending, each
// one's events in the order the components appended them — and derives
// the index from it.
func (b *builder) freeze() *Index {
	f := Flat{EvOff: []int64{0}, Evs: make([]Event, len(b.out))}
	// count[kw] becomes where kw's next event goes.
	at := int32(0)
	for kw, n := range b.count {
		if n > 0 {
			f.Kws = append(f.Kws, dict.ID(kw))
			b.count[kw] = at
			at += n
			f.EvOff = append(f.EvOff, int64(at))
		}
	}
	for _, ke := range b.out {
		f.Evs[b.count[ke.kw]] = ke.ev
		b.count[ke.kw]++
	}
	ix, err := FromFlat(b.in, f)
	if err != nil {
		// Each component's events are distinct and sorted, and the
		// components come in ascending order, so the postings ascend.
		panic("index: internal error: " + err.Error())
	}
	return ix
}

// setItem is what an ownedSet holds.
type setItem interface {
	comparable
	hash() uint64
}

// ownedSet is a set of one component's items that keeps them in insertion
// order and threads them into one list per owner — a document root or a
// tag of the component, by its position there — without a slice per
// owner. It is reset for each component, at a cost in what that component
// uses, not in the largest component seen.
type ownedSet[K setItem] struct {
	items []K
	// slots is an open-addressing hash index over items, probed linearly:
	// an item's position plus one, 0 for a free slot. It is kept at most
	// half full.
	slots []int32
	// next[i] is the item after i in its owner's list, -1 at its end;
	// head and tail are each owner's first and last item, -1 for none.
	next       []int32
	head, tail []int32
}

// minSlots is the hash index's size after a reset, a power of two.
const minSlots = 16

// reset empties the set for a component with the given number of owners.
func (s *ownedSet[K]) reset(owners int) {
	s.items, s.next = s.items[:0], s.next[:0]
	s.slots = fill(s.slots, minSlots, 0)
	s.head = fill(s.head, owners, -1)
	s.tail = fill(s.tail, owners, -1)
}

// add adds k to the set and to owner's list, and reports whether it was
// absent.
func (s *ownedSet[K]) add(owner int32, k K) bool {
	if 2*len(s.items) >= len(s.slots) {
		s.rehash(2 * len(s.slots))
	}
	mask := uint64(len(s.slots) - 1)
	i := k.hash() & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if s.items[s.slots[i]-1] == k {
			return false
		}
	}
	n := int32(len(s.items))
	s.items = append(s.items, k)
	s.slots[i] = n + 1
	s.next = append(s.next, -1)
	if t := s.tail[owner]; t < 0 {
		s.head[owner] = n
	} else {
		s.next[t] = n
	}
	s.tail[owner] = n
	return true
}

// rehash re-indexes the items in a table of size slots.
func (s *ownedSet[K]) rehash(slots int) {
	s.slots = fill(s.slots, slots, 0)
	mask := uint64(slots - 1)
	for p, k := range s.items {
		i := k.hash() & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(p + 1)
	}
}

// after returns the item after cur in owner's list — its first for
// cur < 0 — or -1 at the end.
func (s *ownedSet[K]) after(owner, cur int32) int32 {
	if cur < 0 {
		return s.head[owner]
	}
	return s.next[cur]
}

// fill returns s resized to n, reusing its array when it is large enough,
// with every element set to v.
func fill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// summarize is the one derivation of a posting's component summary. It
// checks that evs, whose fragments must be nodes of in, lie in components
// (a user node has none) and are strictly in canonical order — by
// component, then by (fragment, type, source) (precedes) — and appends
// their distinct components in event order to comps, and where each one's
// run starts (base plus its offset in evs) to first.
func summarize(in *graph.Instance, evs []Event, base int32, comps, first []int32) ([]int32, []int32, error) {
	var prev int32
	for i := range evs {
		c := in.CompOf(evs[i].Frag)
		switch {
		case c < 0:
			return nil, nil, fmt.Errorf("event fragment %d lies in no component", evs[i].Frag)
		case i == 0 || c > prev:
			comps = append(comps, c)
			first = append(first, base+int32(i))
		case c < prev || !precedes(&evs[i-1], &evs[i]):
			return nil, nil, fmt.Errorf("events out of canonical order at %d", i)
		}
		prev = c
	}
	return comps, first, nil
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

// Posting is one keyword's posting resolved in an index: what a search
// looks each of its keywords up once for, so that an admitted (keyword,
// component) costs a binary search over the posting's component ids and a
// slice. The zero Posting is that of a keyword without events.
type Posting struct {
	evs   []Event // the index's events, the posting's among them
	comps []int32 // ascending
	first []int32 // where each component's run starts, then where the last one ends
}

// Posting resolves keyword k by the one keyword lookup, the binary search
// over the keywords that Flat.Events makes too.
func (ix *Index) Posting(k dict.ID) Posting {
	i, ok := ix.f.find(k)
	if !ok {
		return Posting{}
	}
	lo, hi := ix.compOff[i], ix.compOff[i+1]
	return Posting{evs: ix.f.Evs, comps: ix.comps[lo:hi:hi], first: ix.first[lo : hi+1 : hi+1]}
}

// Resolve resolves every keyword of the groups into one backing array:
// Resolve(groups)[g][j] is Posting(groups[g][j]).
func (ix *Index) Resolve(groups [][]dict.ID) [][]Posting {
	n := 0
	for _, group := range groups {
		n += len(group)
	}
	all, out := make([]Posting, n), make([][]Posting, len(groups))
	for gi, group := range groups {
		out[gi], all = all[:len(group):len(group)], all[len(group):]
		for j, k := range group {
			out[gi][j] = ix.Posting(k)
		}
	}
	return out
}

// Comps returns the ascending ids of the components holding an event of
// the posting. It must not be modified.
func (p Posting) Comps() []int32 { return p.comps }

// InComp returns the posting's events anchored in the given component.
func (p Posting) InComp(comp int32) []Event {
	j, ok := slices.BinarySearch(p.comps, comp)
	if !ok {
		return nil
	}
	lo, hi := p.first[j], p.first[j+1]
	return p.evs[lo:hi:hi]
}

// MaxCompEvents returns the most events the posting has in a single
// component, its longest run. Every connection of a candidate d lies in
// d's component and η ≤ 1, so it bounds |con(d, k)| and the connection
// mass Σ η^|pos| of any candidate for the keyword (the §4 threshold).
func (p Posting) MaxCompEvents() int {
	longest := int32(0)
	for j := range p.comps {
		longest = max(longest, p.first[j+1]-p.first[j])
	}
	return int(longest)
}

// CompsForGroups intersects, across keyword groups (each group being the
// semantic extension of one query keyword), the unions of components
// matching the group. A returned component contains at least one event for
// every query keyword — the §5.2 pruning grain.
func (ix *Index) CompsForGroups(groups [][]dict.ID) []int32 {
	return MatchingComps(ix.Resolve(groups))
}

// MatchingComps is CompsForGroups over resolved groups: ascending, nil
// when none matches.
func MatchingComps(groups [][]Posting) []int32 {
	var out []int32
	for gi, group := range groups {
		var union []int32
		for _, p := range group {
			union = append(union, p.comps...)
		}
		slices.Sort(union)
		union = slices.Compact(union)
		if gi == 0 {
			out = union
		} else {
			out = out[:intersectSorted(out, union)]
		}
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// CandidatesInComp returns the document nodes d of the component such that
// con(d, k) is non-empty for every query keyword (groups are extensions,
// as in CompsForGroups): for every group some event's fragment lies in d's
// subtree. Result is sorted.
func (ix *Index) CandidatesInComp(comp int32, groups [][]dict.ID) []graph.NID {
	return ix.AppendCandidatesInComp(nil, comp, ix.Resolve(groups), new(CandScratch))
}

// CandScratch is the working memory of AppendCandidatesInComp. A search
// enumerates one component after another; handing every call the same
// scratch makes the enumeration allocation-free once it has grown.
type CandScratch struct {
	covered []graph.NID
}

// AppendCandidatesInComp appends CandidatesInComp(comp, groups) to dst,
// the groups resolved. The nodes covered by a group are gathered by
// walking up from each event's fragment, sorted and deduplicated; the
// first group's set is appended and every further one intersected into it
// in place, so the appended run is ascending.
func (ix *Index) AppendCandidatesInComp(dst []graph.NID, comp int32, groups [][]Posting, sc *CandScratch) []graph.NID {
	base := len(dst)
	for gi, group := range groups {
		covered := sc.covered[:0]
		for _, p := range group {
			for _, ev := range p.InComp(comp) {
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
func intersectSorted[T cmp.Ordered](a, b []T) int {
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
	var out []Event
	for _, ev := range ix.Posting(k).InComp(ix.in.CompOf(d)) {
		if ix.in.IsAncestorOrSelf(d, ev.Frag) {
			out = append(out, ev)
		}
	}
	return out
}

// NumEvents returns the total number of indexed events.
func (ix *Index) NumEvents() int { return len(ix.f.Evs) }
