package s3

import "s3/internal/proxcache"

// ProxCache is a seeker-proximity checkpoint cache shared across searches
// of one instance: repeated queries from the same seeker (and damping
// parameters) resume the social-graph exploration from the deepest cached
// frontier instead of re-propagating it from scratch, with answers
// byte-identical to uncached searches. Attach it with SetProxCache; it is
// safe for concurrent use and sized by memory, evicting least-recently
// used seekers when the byte budget is exceeded.
type ProxCache struct {
	c *proxcache.Cache
}

// NewProxCache returns a proximity cache budgeted to maxBytes of
// checkpoint state.
func NewProxCache(maxBytes int64) *ProxCache {
	return &ProxCache{c: proxcache.New(maxBytes)}
}

// ProxCacheStats is a point-in-time snapshot of a ProxCache: its content
// (Entries, Bytes) and budget (MaxBytes), lookups by searches (Hits,
// Misses), entries dropped for the budget (Evictions), and publications
// accepted (Stores) or dropped by the deepen-only rule or the budget
// (Rejected).
type ProxCacheStats = proxcache.Stats

// Stats returns the cache's current counters.
func (p *ProxCache) Stats() ProxCacheStats { return p.c.Stats() }

// SetProxCache attaches (or, with nil, detaches) a proximity cache.
// Subsequent searches consult and feed it. Attaching also binds the cache
// to this instance: a cache serves one instance generation at a time, so
// the checkpoints of a previously bound instance are dropped, as are
// publications from searches still in flight against it.
func (i *Instance) SetProxCache(pc *ProxCache) {
	if pc != nil {
		pc.c.Bind(i.in)
	}
	i.prox.Store(pc)
}
