package s3

import (
	"sync/atomic"

	"s3/internal/proxcache"
	"s3/internal/score"
)

// ProxCache is a seeker-proximity checkpoint cache shared across searches
// of one instance: repeated queries from the same seeker (and damping
// parameters) resume the social-graph exploration from the deepest cached
// frontier instead of re-propagating it from scratch, with answers
// byte-identical to uncached searches. Attach it with SetProxCache; it is
// safe for concurrent use and sized by memory, evicting least-recently
// used seekers when the byte budget is exceeded.
type ProxCache struct {
	c *proxcache.Cache
	// warmed counts WarmProximity seeds performed through this cache.
	warmed atomic.Uint64
}

// NewProxCache returns a proximity cache budgeted to maxBytes of
// checkpoint state.
func NewProxCache(maxBytes int64) *ProxCache {
	return &ProxCache{c: proxcache.New(maxBytes)}
}

// ProxCacheStats is a point-in-time snapshot of a ProxCache.
type ProxCacheStats struct {
	// Entries and Bytes describe the current content; MaxBytes the budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Hits and Misses count checkpoint lookups by searches; Evictions
	// counts entries dropped for the byte budget; Stores counts accepted
	// publications (insertions and deepenings); Rejected counts
	// publications dropped by the deepen-only rule or the budget; Warmed
	// counts explicit WarmProximity seeds.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Stores    uint64
	Rejected  uint64
	Warmed    uint64
}

// Stats returns the cache's current counters.
func (p *ProxCache) Stats() ProxCacheStats {
	s := p.c.Stats()
	return ProxCacheStats{
		Entries:   s.Entries,
		Bytes:     s.Bytes,
		MaxBytes:  s.MaxBytes,
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Stores:    s.Stores,
		Rejected:  s.Rejected,
		Warmed:    p.warmed.Load(),
	}
}

// Purge drops every cached checkpoint (lifetime counters are kept).
// Checkpoints are bound to a loaded instance, so purge after swapping the
// served instance; stale entries are also detected and dropped lazily.
func (p *ProxCache) Purge() { p.c.Purge() }

// SetProxCache attaches (or, with nil, detaches) a proximity cache.
// Subsequent searches consult and feed it. Attaching also binds the cache
// to this instance: a cache serves one instance generation at a time, and
// publications from searches still in flight against a previously bound
// instance are dropped.
func (i *Instance) SetProxCache(pc *ProxCache) {
	if pc != nil {
		pc.c.Bind(i.in)
	}
	i.prox.Store(pc)
}

// WarmProximity pre-explores a seeker's social neighbourhood to maxDepth
// under the given damping factors and publishes the frontier into the
// attached proximity cache, so the seeker's next search starts warm. It
// returns the depth now covered (0 when no cache is attached, the seeker
// is unknown, or the parameters are invalid) and whether this call
// performed a seed — warming a key the cache already covers is a
// reported no-op.
func (i *Instance) WarmProximity(seekerURI string, gamma, eta float64, maxDepth int) (int, bool) {
	pc := i.prox.Load()
	if pc == nil {
		return 0, false
	}
	n, ok := i.in.NIDOf(seekerURI)
	if !ok {
		return 0, false
	}
	d, seeded := i.eng.WarmProximity(pc.c, n, score.Params{Gamma: gamma, Eta: eta}, maxDepth)
	if seeded {
		pc.warmed.Add(1)
	}
	return d, seeded
}
