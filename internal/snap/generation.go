// Serving lifetime: how long a loaded snapshot's bytes stay mapped once
// something serves them.
//
// A serving process hot-swaps what it serves — a reload opens the file
// again and installs the result — while searches are still reading the
// previous one. The previous value must be closed (its files unmapped)
// exactly when the swap has moved past it and the last of those searches
// is done: not at swap time, which would pull pages out from under a
// reader, and not whenever the garbage collector notices, which would
// keep an unlinked file's pages mapped for an unknown time. Current holds
// the served value; every reader takes a reference with Acquire and drops
// it with Release, and Current keeps one of its own until the next
// Install.
package snap

import (
	"io"
	"sync/atomic"
)

// Generation is one installed value of a Current, reference-counted: its
// Value is closed when the count reaches zero.
type Generation[V io.Closer] struct {
	Value V
	// Version is 1 for a Current's first Install, and one more than the
	// previous generation's for each later one.
	Version uint64

	// refs counts holders: the Current while the generation is installed,
	// plus every reader between Acquire and Release.
	refs atomic.Int64
}

// retain takes a reference; it fails only on a generation that already
// reached zero, which Acquire answers by reading the current one again.
func (g *Generation[V]) retain() bool {
	for {
		r := g.refs.Load()
		if r <= 0 {
			return false
		}
		if g.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops a reference taken by Acquire and closes the value when
// it was the last one.
func (g *Generation[V]) Release() {
	if g.refs.Add(-1) == 0 {
		_ = g.Value.Close()
	}
}

// Current is the served generation of a hot-swapped value. The zero value
// holds nothing.
type Current[V io.Closer] struct {
	p atomic.Pointer[Generation[V]]
}

// Acquire returns the current generation with a reference held, which the
// caller must Release; nil before the first Install. The loop covers an
// Install retiring the generation between the load and the retain.
func (c *Current[V]) Acquire() *Generation[V] {
	for {
		g := c.p.Load()
		if g == nil || g.retain() {
			return g
		}
	}
}

// Peek returns the current generation without a reference (nil before
// the first Install): enough to read its Version, not to use its Value.
func (c *Current[V]) Peek() *Generation[V] { return c.p.Load() }

// Install makes v the current value and drops the Current's reference to
// the previous generation, which closes when its last reader releases it.
// Callers serialise their Installs: two at once could share a Version.
func (c *Current[V]) Install(v V) {
	g := &Generation[V]{Value: v, Version: 1}
	g.refs.Store(1)
	old := c.p.Load()
	if old != nil {
		g.Version = old.Version + 1
	}
	c.p.Store(g)
	if old != nil {
		old.Release()
	}
}
