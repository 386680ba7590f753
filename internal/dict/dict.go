// Package dict provides string interning: a bidirectional mapping between
// strings (URIs, literals, keywords) and dense integer identifiers.
//
// Every layer of the S3 instance (RDF triples, document nodes, tags, the
// network matrix) speaks in dict.ID values instead of strings, which keeps
// the hot paths allocation-free and makes node identity a single integer
// comparison.
//
// A dictionary comes in two flavours:
//
//   - map-backed (New): the mutable form used by builders.
//     Safe for concurrent readers once no more writers call Intern;
//     interleaving Intern with readers requires external locking.
//   - arena-backed (FromArena): a read-only base over one contiguous byte
//     arena (typically a memory-mapped snapshot section) plus a sorted
//     permutation for binary-searched lookups. No per-entry allocation
//     happens on construction. A small mutex-guarded overflow layer still
//     accepts Intern of genuinely new strings (e.g. the lazy RDF export),
//     so arena dictionaries are safe for concurrent use throughout.
package dict

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"unsafe"
)

// ID is a dense identifier for an interned string. IDs are assigned
// consecutively from 0 in insertion order.
type ID uint32

// NoID is a sentinel that is never returned by Intern.
const NoID ID = ^ID(0)

// Dict interns strings into dense IDs and resolves IDs back to strings.
// The zero value is not usable; call New or FromArena.
type Dict struct {
	byStr map[string]ID
	strs  []string

	// Arena mode: entry i is arena[offs[i]:offs[i+1]] (no per-entry
	// materialisation at all — lookups binary-search perm, which lists
	// ids in ascending string order, comparing bytes straight out of the
	// arena), and the overflow below accepts post-freeze Intern calls.
	// byStr and strs are nil.
	arena []byte
	offs  []int64
	perm  []int32

	mu     sync.RWMutex
	moreBy map[string]ID
	more   []string
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{byStr: make(map[string]ID)}
}

// Intern returns the ID for s, assigning a fresh one if s was never seen.
func (d *Dict) Intern(s string) ID {
	if d.offs != nil {
		return d.internArena(s)
	}
	if id, ok := d.byStr[s]; ok {
		return id
	}
	id := ID(len(d.strs))
	if id == NoID {
		panic("dict: identifier space exhausted")
	}
	d.byStr[s] = id
	d.strs = append(d.strs, s)
	return id
}

func (d *Dict) internArena(s string) ID {
	if id, ok := d.lookupBase(s); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.moreBy[s]; ok {
		return id
	}
	id := ID(d.baseLen() + len(d.more))
	if id == NoID {
		panic("dict: identifier space exhausted")
	}
	if d.moreBy == nil {
		d.moreBy = make(map[string]ID)
	}
	s = strings.Clone(s)
	d.moreBy[s] = id
	d.more = append(d.more, s)
	return id
}

// baseLen returns the number of arena entries.
func (d *Dict) baseLen() int { return len(d.offs) - 1 }

// baseBytes returns entry i of the arena, uncopied.
func (d *Dict) baseBytes(i int32) []byte {
	return d.arena[d.offs[i]:d.offs[i+1]]
}

// cmpBytesString is bytes.Compare between an arena entry and a query
// string, without converting either (conversions allocate).
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// lookupBase binary-searches the sorted permutation of the arena base,
// comparing bytes straight out of the arena.
func (d *Dict) lookupBase(s string) (ID, bool) {
	lo, hi := 0, len(d.perm)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpBytesString(d.baseBytes(d.perm[mid]), s) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.perm) && cmpBytesString(d.baseBytes(d.perm[lo]), s) == 0 {
		return ID(d.perm[lo]), true
	}
	return NoID, false
}

// Lookup returns the ID for s if it was interned.
func (d *Dict) Lookup(s string) (ID, bool) {
	if d.offs != nil {
		if id, ok := d.lookupBase(s); ok {
			return id, true
		}
		d.mu.RLock()
		id, ok := d.moreBy[s]
		d.mu.RUnlock()
		return id, ok
	}
	id, ok := d.byStr[s]
	return id, ok
}

// Has reports whether s was interned.
func (d *Dict) Has(s string) bool {
	_, ok := d.Lookup(s)
	return ok
}

// String resolves an ID back to the interned string. It panics on an ID
// that was never issued, which always indicates a programming error.
//
// For an arena-backed dictionary the result is a private copy: returned
// strings never alias the arena, so they stay valid after the mapping
// backing the arena is released. (Strings, used by the snapshot writer,
// is the one accessor that returns arena-aliasing views.)
func (d *Dict) String(id ID) string {
	if d.offs != nil {
		if int(id) < d.baseLen() {
			return string(d.baseBytes(int32(id)))
		}
		d.mu.RLock()
		defer d.mu.RUnlock()
		if i := int(id) - d.baseLen(); i >= 0 && i < len(d.more) {
			return d.more[i]
		}
		panic(fmt.Sprintf("dict: unknown id %d (size %d)", id, d.Len()))
	}
	if int(id) >= len(d.strs) {
		panic(fmt.Sprintf("dict: unknown id %d (size %d)", id, len(d.strs)))
	}
	return d.strs[id]
}

// FromArena reconstructs a read-only dictionary over a contiguous string
// arena: entry i is arena[offs[i]:offs[i+1]], and perm lists the ids in
// ascending string order (the lookup index, as produced by SortPerm). The
// arena and perm are retained, and the entry strings alias the arena
// without copying — the caller owns the arena's lifetime and must keep it
// readable and unmodified for as long as the dictionary (or any instance
// built over it) is in use.
//
// FromArena validates structure (offset monotonicity, index bounds) so
// no lookup can panic, and that perm lists the entries in strictly
// ascending string order — which makes it a permutation, proves the
// strings distinct, and is the order Lookup's binary search needs.
func FromArena(arena []byte, offs []int64, perm []int32) (*Dict, error) {
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != int64(len(arena)) {
		return nil, fmt.Errorf("dict: arena offsets do not span %d bytes", len(arena))
	}
	n := len(offs) - 1
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] {
			return nil, fmt.Errorf("dict: decreasing arena offset at entry %d", i)
		}
	}
	if len(perm) != n {
		return nil, fmt.Errorf("dict: sort index has %d entries for %d strings", len(perm), n)
	}
	d := &Dict{arena: arena, offs: offs, perm: perm}
	for i, p := range perm {
		if uint32(p) >= uint32(n) {
			return nil, fmt.Errorf("dict: sort index entry %d out of range", p)
		}
		if i > 0 && bytes.Compare(d.baseBytes(perm[i-1]), d.baseBytes(p)) >= 0 {
			return nil, fmt.Errorf("dict: sort index is not strictly ascending at %d", i)
		}
	}
	return d, nil
}

// Len returns the number of interned strings.
func (d *Dict) Len() int {
	if d.offs != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.baseLen() + len(d.more)
	}
	return len(d.strs)
}

// Strings returns all interned strings in ID order. For a map-backed
// dictionary the returned slice is shared and must not be modified; an
// arena-backed dictionary returns a fresh slice whose entries alias the
// arena.
func (d *Dict) Strings() []string {
	if d.offs != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
		out := make([]string, 0, d.baseLen()+len(d.more))
		for i := 0; i < d.baseLen(); i++ {
			b := d.baseBytes(int32(i))
			if len(b) == 0 {
				out = append(out, "")
				continue
			}
			out = append(out, unsafe.String(&b[0], len(b)))
		}
		return append(out, d.more...)
	}
	return d.strs
}
