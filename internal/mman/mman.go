// Package mman owns the memory-mapped file handles behind zero-copy
// snapshot loading. A Mapping is a read-only byte view of a whole file
// obtained from mmap(2); higher layers reinterpret aligned spans of it as
// typed slices and therefore must keep the Mapping alive for as long as
// any such slice may be read.
//
// A Mapping has exactly one owner, the open that made it, and is
// unmapped when that owner calls Release — deterministically, not when
// the garbage collector gets round to it. How long the owner keeps it
// (across a hot swap, until the last in-flight search ends) is decided
// above this package, in internal/snap. The pages stay readable after the
// file is unlinked or rewritten on disk: the mapping pins the old inode.
package mman

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Mapping is a read-only memory-mapped file. Use Open, drop with Release.
type Mapping struct {
	data     []byte
	released atomic.Bool
}

// Open maps the whole file read-only. On platforms without mmap support
// the file is read into private memory instead; the Mapping API is
// identical either way.
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
	return &Mapping{data: data}, nil
}

// Data returns the mapped bytes. The slice (and anything reinterpreted
// from it) is valid only until Release.
func (m *Mapping) Data() []byte { return m.data }

// Size returns the mapped length in bytes.
func (m *Mapping) Size() int64 { return int64(len(m.data)) }

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

// Release unmaps the file. Releasing twice panics: it would mean some
// holder can still read pages that are already gone.
func (m *Mapping) Release() error {
	if m == nil {
		return nil
	}
	if m.released.Swap(true) {
		panic("mman: Release of a released mapping")
	}
	data := m.data
	m.data = nil
	if data == nil {
		return nil
	}
	return unmapFile(data)
}
