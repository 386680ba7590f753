// Package mman owns the memory-mapped file handles behind zero-copy
// snapshot loading. A Mapping is a read-only byte view of a whole file
// obtained from mmap(2); higher layers reinterpret aligned spans of it as
// typed slices and therefore must keep the Mapping alive for as long as
// any such slice may be read.
//
// Lifetime is reference-counted, not GC-driven: the opener holds the
// first reference, every long-lived structure built over the bytes takes
// its own via Retain, and the pages are unmapped exactly when the last
// holder calls Release. This is what lets a serving process hot-swap
// instances: the old snapshot's mapping stays valid while in-flight
// searches still read it and disappears deterministically when the last
// one finishes — even if the file has been unlinked or rewritten on disk
// in the meantime (the mapping pins the old inode).
package mman

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Mapping is a read-only memory-mapped file. Use Open, share with Retain,
// drop with Release.
type Mapping struct {
	data []byte
	path string
	// refs counts live holders; the pages are unmapped when it reaches
	// zero. A zero or negative count means the mapping is dead.
	refs atomic.Int64
}

// Open maps the whole file read-only and returns a Mapping holding one
// reference. On platforms without mmap support the file is read into
// private memory instead; the Mapping API is identical either way.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("mman: %s: %d bytes exceed the address space", path, size)
	}
	data, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("mman: mapping %s: %w", path, err)
	}
	m := &Mapping{data: data, path: path}
	m.refs.Store(1)
	return m, nil
}

// Data returns the mapped bytes. The slice (and anything reinterpreted
// from it) is valid only while the caller holds a reference.
func (m *Mapping) Data() []byte { return m.data }

// Size returns the mapped length in bytes.
func (m *Mapping) Size() int64 { return int64(len(m.data)) }

// Path returns the file path the mapping was opened from (diagnostics;
// the file may have been unlinked or replaced since).
func (m *Mapping) Path() string { return m.path }

// Retain adds a reference. It must be called while at least one
// reference is still held (a dead mapping cannot be revived). The CAS
// loop keeps a misuse panic from resurrecting the count: a dead mapping
// stays dead, so a later misuse still panics deterministically.
func (m *Mapping) Retain() {
	if m == nil {
		return
	}
	for {
		r := m.refs.Load()
		if r <= 0 {
			panic("mman: Retain on a released mapping")
		}
		if m.refs.CompareAndSwap(r, r+1) {
			return
		}
	}
}

// Range is a byte span [Off, Off+Len) of a mapping.
type Range struct {
	Off, Len int64
}

// Advice is memory-usage advice for a span of a mapping (madvise(2)).
type Advice int

const (
	// AdviseNormal restores the default readahead behaviour.
	AdviseNormal Advice = iota
	// AdviseRandom expects random access: disables readahead, so a
	// point-lookup faults one page instead of a cluster.
	AdviseRandom
	// AdviseWillNeed asks the kernel to start faulting the span in now —
	// the prefetch for sections the warm path will touch.
	AdviseWillNeed
)

// Advise applies access advice to a span of the mapping. Out-of-range or
// zero spans and platforms without madvise are no-ops: advice is a
// performance hint, never a correctness requirement.
func (m *Mapping) Advise(r Range, a Advice) error {
	if m == nil || m.data == nil || r.Len <= 0 || r.Off < 0 || r.Off+r.Len > int64(len(m.data)) {
		return nil
	}
	// madvise wants page-aligned addresses; widen to page boundaries
	// (advice on neighbouring bytes of a shared page is harmless).
	page := int64(os.Getpagesize())
	lo := r.Off &^ (page - 1)
	hi := r.Off + r.Len
	if rem := hi % page; rem != 0 && hi+page-rem <= int64(len(m.data)) {
		hi += page - rem
	}
	return adviseRange(m.data[lo:hi], a)
}

// Release drops one reference and unmaps the file when it was the last.
// Releasing more times than retaining panics: it would mean some holder
// can still read pages that are about to vanish.
func (m *Mapping) Release() error {
	if m == nil {
		return nil
	}
	n := m.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("mman: Release without a matching reference")
	}
	data := m.data
	m.data = nil
	if data == nil {
		return nil
	}
	return unmapFile(data)
}
