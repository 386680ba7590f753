// Package proxcache caches seeker-proximity checkpoints across searches.
//
// The §5.2 borderProx exploration is the dominant serial cost of
// candidate-heavy queries, and real social-search workloads are heavily
// seeker-skewed: the same user issues many queries in a row. A Cache maps
// (seeker, damping params) to the deepest recorded exploration
// (score.ProxCheckpoint) seen so far, so a repeated-seeker search replays
// the recorded depths instead of re-propagating the matrix from depth 0 —
// with answers bit-identical to the cold path, because what a replayed
// step yields is the recording search's own prox≤d vector (a saturated
// depth, adopted without touching a cell) or the same fold over the same
// border (a narrow depth).
//
// Checkpoints are large — 8·N bytes per saturated depth, 12 per border
// cell of a narrow one, whichever is smaller depth by depth, plus the
// border of the last depth — so the cache budget is in bytes, not
// entries, and eviction is LRU by memory. Entries are immutable and
// shared: a search reads a cached snapshot in place, concurrently with
// others, and keeps no reference past its End. Replacement is
// deepen-only: a shallower checkpoint never overwrites a deeper one for
// the same key, so concurrent searches racing to publish can only improve
// the cache. The instance pointer is part of checkpoint identity: binding
// the cache to a new instance generation (after a hot reload) drops the
// entries of every other, and an unbound cache drops a stale entry when a
// lookup finds it.
package proxcache

import (
	"container/list"
	"sync"

	"s3/internal/graph"
	"s3/internal/score"
)

// Key identifies one cached exploration: the seeker and the damping
// parameters (different γ explore the graph with different numbers, so
// they cannot share frontiers).
type Key struct {
	Seeker graph.NID
	Params score.Params
}

// Cache is a concurrency-safe, byte-budgeted LRU of proximity
// checkpoints. The zero value is not usable; create with New.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used
	items    map[Key]*list.Element

	// bound, when non-nil, is the only instance whose checkpoints the
	// cache holds: it stops searches still in flight across a hot reload
	// from re-populating the cache with entries that would pin the
	// outgoing instance in memory, or from evicting the entries of the
	// incoming one.
	bound *graph.Instance

	hits, misses, evictions, stores, rejected uint64
}

type entry struct {
	key Key
	cp  *score.ProxCheckpoint
}

// New returns a cache holding at most maxBytes of checkpoint state. A
// non-positive budget yields a cache that stores nothing (every Put is
// rejected) but still serves — and counts — lookups.
func New(maxBytes int64) *Cache {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache{
		maxBytes: maxBytes,
		order:    list.New(),
		items:    make(map[Key]*list.Element),
	}
}

// Bind restricts the cache to checkpoints recorded over the given
// instance: it drops every entry recorded over another, and Put then
// rejects theirs, under one lock (nil lifts the restriction and drops
// nothing). Serving layers bind the cache to each newly installed
// instance generation, so a search that was still running against the
// previous generation cannot publish a stale — and instance-pinning —
// checkpoint, however its end interleaves with the reload.
func (c *Cache) Bind(in *graph.Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bound = in
	if in == nil {
		return
	}
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if !el.Value.(*entry).cp.For(in) {
			c.removeLocked(el)
		}
		el = next
	}
}

// Get returns the deepest checkpoint cached for the key, or nil. A
// checkpoint recorded over a different instance generation is a miss; an
// unbound cache also removes it, while a bound one keeps it, since it is
// then the bound instance's and the caller a search still running on
// another.
func (c *Cache) Get(k Key, in *graph.Instance) *score.ProxCheckpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		if e.cp.For(in) {
			c.hits++
			c.order.MoveToFront(el)
			return e.cp
		}
		if c.bound == nil {
			c.removeLocked(el)
		}
	}
	c.misses++
	return nil
}

// Put offers a checkpoint to the cache. It is kept only if it supersedes
// the cached entry for its key (deepen-only; stale-instance entries are
// always superseded) and fits the byte budget; insertion evicts
// least-recently-used entries until the budget holds again.
func (c *Cache) Put(k Key, cp *score.ProxCheckpoint) {
	if cp == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bound != nil && !cp.For(c.bound) {
		c.rejected++
		return
	}
	if cp.Bytes() > c.maxBytes {
		c.rejected++
		return
	}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		if !cp.Supersedes(e.cp) {
			c.rejected++
			return
		}
		c.bytes += cp.Bytes() - e.cp.Bytes()
		e.cp = cp
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&entry{key: k, cp: cp})
		c.bytes += cp.Bytes()
	}
	c.stores++
	for c.bytes > c.maxBytes {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.cp.Bytes()
}

// Purge drops every entry but keeps the lifetime counters and the
// binding.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
	c.bytes = 0
}

// Stats is a point-in-time snapshot of the cache's counters and size.
type Stats struct {
	Entries   int
	Bytes     int64
	MaxBytes  int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Stores counts accepted Puts (insertions and deepenings); Rejected
	// counts Puts dropped by the deepen-only rule or the byte budget.
	Stores   uint64
	Rejected uint64
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.items),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Stores:    c.stores,
		Rejected:  c.rejected,
	}
}
