package graph

import (
	"hash/maphash"
	"slices"
	"strings"

	"s3/internal/dict"
)

// strTable numbers the distinct strings a Builder is fed — URIs, names,
// keywords, properties, ontology terms — by first sight: each reference
// is hashed once, when it is added, and named by its position from then
// on. Beside each string it keeps the node the string names, if any.
type strTable struct {
	seed maphash.Seed
	// slots is an open-addressing hash index over strs, probed linearly:
	// a position plus one, 0 for a free slot. It is kept at most half
	// full.
	slots []int32
	strs  []string
	ents  []strEntry
}

// strEntry is what the table knows of one string.
type strEntry struct {
	kind NodeKind
	ord  int32 // the ordinal plus one among the kind's nodes, 0 if no node
	stem int32 // for a tag keyword, its stem's position plus one, 0 until stemmed
	decl uint8 // the declarations made of the string (declSocial, …)
}

// The sub-property and sub-class declarations a builder makes of a
// relation's named property or class.
const (
	declSocial uint8 = 1 << iota
	declCommentsOn
	declRelatedTo
)

// minSlots is the smallest hash index, a power of two.
const minSlots = 64

// newStrTable returns a table with room for about n strings.
func newStrTable(n int) strTable {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	return strTable{
		seed:  maphash.MakeSeed(),
		slots: make([]int32, size),
		strs:  make([]string, 0, n),
		ents:  make([]strEntry, 0, n),
	}
}

// slot returns the index slot s probes to: the one holding s, or the
// free one where it would go.
func (t *strTable) slot(s string) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(t.seed, s) & mask
	for p := t.slots[i]; p != 0 && t.strs[p-1] != s; p = t.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// find returns the position of s, if the table holds it.
func (t *strTable) find(s string) (int32, bool) {
	p := t.slots[t.slot(s)]
	return p - 1, p != 0
}

// add returns the position of s, adding it if the table lacks it. The
// string is kept as given, not copied.
func (t *strTable) add(s string) int32 {
	if 2*(len(t.strs)+1) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	i := t.slot(s)
	if p := t.slots[i]; p != 0 {
		return p - 1
	}
	t.strs = append(t.strs, s)
	t.ents = append(t.ents, strEntry{})
	t.slots[i] = int32(len(t.strs))
	return int32(len(t.strs) - 1)
}

// rehash re-indexes the strings in an index of the given size.
func (t *strTable) rehash(size int) {
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for p, s := range t.strs {
		i := maphash.String(t.seed, s) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(p + 1)
	}
}

// findNode returns the ordinal of the node of kind k that s names.
func (t *strTable) findNode(s string, k NodeKind) (int32, bool) {
	p, ok := t.find(s)
	if !ok {
		return 0, false
	}
	e := t.ents[p]
	return e.ord - 1, e.ord != 0 && e.kind == k
}

// dictBuilder lays out the dictionary Builder.Build freezes: it gives the
// table's strings dictionary ids in the order it is asked for them, each
// string's bytes going into one arena as its id is assigned — no hashing,
// no lock and no per-string allocation.
type dictBuilder struct {
	t     *strTable
	ids   []dict.ID // by table position, dict.NoID until assigned
	arena []byte
	offs  []int64
	pos   []int32 // the table position of each id
}

// newDictBuilder returns a builder over t.
func newDictBuilder(t *strTable) *dictBuilder {
	ids := make([]dict.ID, len(t.strs))
	size := 0
	for i, s := range t.strs {
		ids[i] = dict.NoID
		size += len(s)
	}
	return &dictBuilder{
		t:     t,
		ids:   ids,
		arena: make([]byte, 0, size),
		offs:  append(make([]int64, 0, len(ids)+1), 0),
		pos:   make([]int32, 0, len(ids)),
	}
}

// id returns the id of the string at position p, assigning the next one if
// it has none yet.
func (d *dictBuilder) id(p int32) dict.ID {
	for int(p) >= len(d.ids) { // a string the table took after d was made
		d.ids = append(d.ids, dict.NoID)
	}
	if id := d.ids[p]; id != dict.NoID {
		return id
	}
	id := dict.ID(len(d.pos))
	d.ids[p] = id
	d.pos = append(d.pos, p)
	d.arena = append(d.arena, d.t.strs[p]...)
	d.offs = append(d.offs, int64(len(d.arena)))
	return id
}

// freeze returns the dictionary of the ids assigned, in the form a snapshot
// stores: the arena in id order and the ids in ascending string order.
func (d *dictBuilder) freeze() (*dict.Dict, error) {
	perm := make([]int32, len(d.pos))
	for i := range perm {
		perm[i] = int32(i)
	}
	strs := d.t.strs
	slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(strs[d.pos[a]], strs[d.pos[b]]) })
	return dict.FromArena(d.arena, d.offs, perm)
}
