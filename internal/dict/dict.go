// Package dict provides string interning: a bidirectional mapping between
// strings (URIs, literals, keywords) and dense integer identifiers.
//
// Every layer of the S3 instance (RDF triples, document nodes, tags, the
// network matrix) speaks in dict.ID values instead of strings, which keeps
// the hot paths allocation-free and makes node identity a single integer
// comparison.
//
// A dictionary has one form: a read-only base over one contiguous byte
// arena plus a sorted permutation for binary-searched lookups — the form a
// snapshot stores, so a loaded dictionary (FromArena) is a view of the
// file with no per-entry allocation — and a small mutex-guarded overflow
// that accepts Intern of strings the base lacks. An instance builder lays
// out the arena itself and hands it to FromArena; New gives an empty base
// whose overflow takes every string (a standalone RDF graph's, say).
// Later Intern calls (the lazy RDF export, say) go to the overflow and
// never reach the base that Arena hands the snapshot writer. Every method
// is safe for concurrent use.
package dict

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
)

// ID is a dense identifier for an interned string. IDs are assigned
// consecutively from 0 in insertion order.
type ID uint32

// NoID is a sentinel that is never returned by Intern.
const NoID ID = ^ID(0)

// Dict interns strings into dense IDs and resolves IDs back to strings.
// The zero value is not usable; call New or FromArena.
type Dict struct {
	// The base: entry i is arena[offs[i]:offs[i+1]] (no per-entry
	// materialisation at all — lookups binary-search perm, which lists
	// ids in ascending string order, comparing bytes straight out of the
	// arena). It is never modified.
	arena []byte
	offs  []int64
	perm  []int32

	// The overflow: ids from the base's length on.
	mu     sync.RWMutex
	moreBy map[string]ID
	more   []string
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{offs: []int64{0}}
}

// Intern returns the ID for s, assigning a fresh one if s was never seen.
func (d *Dict) Intern(s string) ID {
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
	if id, ok := d.lookupBase(s); ok {
		return id, true
	}
	d.mu.RLock()
	id, ok := d.moreBy[s]
	d.mu.RUnlock()
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
// The result is a private copy: returned strings never alias the arena,
// so they stay valid after the mapping backing the arena is released.
func (d *Dict) String(id ID) string {
	if int(id) < d.baseLen() {
		return string(d.baseBytes(int32(id)))
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if i := int(id) - d.baseLen(); i >= 0 && i < len(d.more) {
		return d.more[i]
	}
	panic(fmt.Sprintf("dict: unknown id %d (size %d)", id, d.baseLen()+len(d.more)))
}

// FromArena reconstructs a dictionary over a contiguous string arena:
// entry i is arena[offs[i]:offs[i+1]], and perm lists the ids in
// ascending string order (the lookup index, as Arena returns it). The
// arena, offsets and perm are retained as the base without copying — the
// caller owns their lifetime and must keep them readable and unmodified
// for as long as the dictionary (or any instance built over it) is in
// use.
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

// Arena returns the base in the form FromArena takes back: the string
// arena, its n+1 offsets and the ids in ascending string order. Strings
// interned into the overflow are not part of it. The slices are shared
// with the dictionary and must not be modified.
func (d *Dict) Arena() (arena []byte, offs []int64, perm []int32) {
	return d.arena, d.offs, d.perm
}

// Len returns the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.baseLen() + len(d.more)
}
