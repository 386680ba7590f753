package server

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used map from query keys to
// finished search responses. It is safe for concurrent use.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

type lruEntry struct {
	key string
	// req is the normalized request that produced val; /reload replays
	// these against the new instance to re-warm the cache.
	req searchRequest
	val *searchResponse
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached response and promotes the entry.
func (c *lruCache) get(key string) (*searchResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes an entry, evicting the least recently used one
// when over capacity.
func (c *lruCache) put(key string, req searchRequest, val *searchResponse) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, req: req, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions++
	}
}

// requests returns the cached requests in recency order (most recently
// used first) — the hot query set a reload replays.
func (c *lruCache) requests() []searchRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]searchRequest, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).req)
	}
	return out
}

// purge drops every entry (hot reload invalidates all cached answers) but
// keeps the lifetime counters.
func (c *lruCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

// stats returns the capacity, the entries held and the lifetime counters.
func (c *lruCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Capacity: c.cap, Size: c.order.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
