package proxcache

import (
	"math/rand"
	"sync"
	"testing"

	"s3/internal/datagen"
	"s3/internal/graph"
	"s3/internal/score"
	"s3/internal/text"
)

func buildInstance(t *testing.T, seed int64) *graph.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := datagen.RandomSpec(rng, datagen.DefaultRandomOptions())
	in, err := graph.BuildSpec(spec, text.Analyzer{Lang: text.None})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// checkpointAt explores seeker to the given depth and returns the frontier.
func checkpointAt(in *graph.Instance, seeker graph.NID, depth int) *score.ProxCheckpoint {
	it := score.NewRecordingIterator(in, score.DefaultParams(), seeker)
	for d := 0; d < depth && !it.Done(); d++ {
		it.Step()
	}
	return it.Checkpoint()
}

func TestDeepenOnlyReplacement(t *testing.T) {
	in := buildInstance(t, 1)
	u := in.Users()[0]
	k := Key{Seeker: u, Params: score.DefaultParams()}
	c := New(1 << 20)

	deep := checkpointAt(in, u, 4)
	shallow := checkpointAt(in, u, 2)

	c.Put(k, deep)
	c.Put(k, shallow) // must not downgrade
	if got := c.Get(k, in); got == nil || got.N() != 4 {
		t.Fatalf("shallower checkpoint overwrote deeper one: %v", got)
	}
	c.Put(k, checkpointAt(in, u, 6))
	if got := c.Get(k, in); got == nil || got.N() != 6 {
		t.Fatalf("deeper checkpoint rejected: %v", got)
	}
	st := c.Stats()
	if st.Stores != 2 || st.Rejected != 1 {
		t.Fatalf("stores=%d rejected=%d, want 2/1", st.Stores, st.Rejected)
	}
	if st.Entries != 1 {
		t.Fatalf("entries=%d, want 1", st.Entries)
	}
	if st.Bytes != c.Get(k, in).Bytes() {
		t.Fatalf("bytes=%d does not track the stored checkpoint", st.Bytes)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	in := buildInstance(t, 2)
	users := in.Users()
	if len(users) < 3 {
		t.Skip("need 3 users")
	}
	cps := make([]*score.ProxCheckpoint, 3)
	keys := make([]Key, 3)
	for i := 0; i < 3; i++ {
		cps[i] = checkpointAt(in, users[i], 3)
		keys[i] = Key{Seeker: users[i], Params: score.DefaultParams()}
	}
	// Budget for roughly two of the three checkpoints.
	budget := cps[0].Bytes() + cps[1].Bytes() + cps[2].Bytes()/2
	c := New(budget)
	c.Put(keys[0], cps[0])
	c.Put(keys[1], cps[1])
	c.Get(keys[0], in) // promote 0; 1 becomes LRU
	c.Put(keys[2], cps[2])

	if got := c.Get(keys[1], in); got != nil {
		t.Fatal("LRU entry survived over-budget insertion")
	}
	if c.Get(keys[0], in) == nil || c.Get(keys[2], in) == nil {
		t.Fatal("wrong entry evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	if st.Bytes > budget {
		t.Fatalf("bytes=%d over budget %d", st.Bytes, budget)
	}

	// An entry bigger than the whole budget is rejected outright.
	tiny := New(16)
	tiny.Put(keys[0], cps[0])
	if tiny.Get(keys[0], in) != nil {
		t.Fatal("oversized checkpoint accepted")
	}
	if s := tiny.Stats(); s.Rejected != 1 || s.Entries != 0 {
		t.Fatalf("rejected=%d entries=%d, want 1/0", s.Rejected, s.Entries)
	}

	// A non-positive budget stores nothing but still serves lookups.
	off := New(0)
	off.Put(keys[0], cps[0])
	if off.Get(keys[0], in) != nil {
		t.Fatal("zero-budget cache stored an entry")
	}
}

func TestStaleInstanceSelfHeals(t *testing.T) {
	in1 := buildInstance(t, 3)
	in2 := buildInstance(t, 3) // same shape, different generation
	u := in1.Users()[0]
	k := Key{Seeker: u, Params: score.DefaultParams()}
	c := New(1 << 20)
	c.Put(k, checkpointAt(in1, u, 3))

	// Looking the key up for the new generation drops the stale entry.
	if got := c.Get(k, in2); got != nil {
		t.Fatal("stale checkpoint returned for a different instance")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry retained: entries=%d bytes=%d", st.Entries, st.Bytes)
	}
	// And a new-generation publication replaces it regardless of depth.
	c.Put(k, checkpointAt(in1, u, 5))
	c.Put(k, checkpointAt(in2, u, 2))
	if got := c.Get(k, in2); got == nil || got.N() != 2 {
		t.Fatalf("new-generation checkpoint not installed: %v", got)
	}
}

// TestBindRejectsStalePublications: once bound to an instance generation,
// the cache drops checkpoints recorded over any other — a search still in
// flight across a hot reload cannot pin the outgoing instance.
func TestBindRejectsStalePublications(t *testing.T) {
	in1 := buildInstance(t, 6)
	in2 := buildInstance(t, 6)
	u := in1.Users()[0]
	k := Key{Seeker: u, Params: score.DefaultParams()}
	c := New(1 << 20)
	c.Bind(in2)
	c.Put(k, checkpointAt(in1, u, 3)) // stale generation: dropped
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("stale publication accepted: %+v", st)
	}
	c.Put(k, checkpointAt(in2, u, 3))
	if c.Get(k, in2) == nil {
		t.Fatal("bound-generation publication rejected")
	}
	c.Bind(nil) // unbound: anything goes again
	c.Put(Key{Seeker: in1.Users()[1], Params: score.DefaultParams()}, checkpointAt(in1, in1.Users()[1], 2))
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("unbound cache rejected a publication: %+v", st)
	}
}

func TestPurgeAndCounters(t *testing.T) {
	in := buildInstance(t, 4)
	u := in.Users()[0]
	k := Key{Seeker: u, Params: score.DefaultParams()}
	c := New(1 << 20)
	if c.Get(k, in) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, checkpointAt(in, u, 3))
	if c.Get(k, in) == nil {
		t.Fatal("miss after put")
	}
	c.Purge()
	if c.Get(k, in) != nil {
		t.Fatal("hit after purge")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("purge left entries=%d bytes=%d", st.Entries, st.Bytes)
	}
}

// TestBindDropsOtherInstances: Bind drops every entry recorded over
// another instance in the same step that starts rejecting their
// publications, so a search of the outgoing generation that ends during
// a reload cannot leave a checkpoint pinning it. The lifetime counters
// stay.
func TestBindDropsOtherInstances(t *testing.T) {
	a, b := buildInstance(t, 7), buildInstance(t, 7)
	k := Key{Seeker: a.Users()[0], Params: score.DefaultParams()}
	c := New(1 << 20)
	c.Bind(a)
	c.Put(k, checkpointAt(a, k.Seeker, 3))
	if c.Get(k, a) == nil {
		t.Fatal("miss after put")
	}
	c.Bind(b)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("A's checkpoint survived Bind(B): entries=%d bytes=%d", st.Entries, st.Bytes)
	}
	if c.Get(k, a) != nil {
		t.Fatal("hit on A's checkpoint after Bind(B)")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("hits=%d misses=%d stores=%d, want 1/1/1", st.Hits, st.Misses, st.Stores)
	}
	// Binding to the instance the entries were recorded over keeps them.
	c.Put(k, checkpointAt(b, k.Seeker, 3))
	c.Bind(b)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("Bind(B) dropped B's checkpoint: entries=%d", st.Entries)
	}
}

// TestBoundGetFromOtherInstanceMisses: a lookup by a search still running
// on another generation misses without evicting the bound generation's
// checkpoint for the same seeker.
func TestBoundGetFromOtherInstanceMisses(t *testing.T) {
	a, b := buildInstance(t, 8), buildInstance(t, 8)
	k := Key{Seeker: b.Users()[0], Params: score.DefaultParams()}
	c := New(1 << 20)
	c.Bind(b)
	c.Put(k, checkpointAt(b, k.Seeker, 3))
	if c.Get(k, a) != nil {
		t.Fatal("B's checkpoint returned for a lookup over A")
	}
	if got := c.Get(k, b); got == nil || got.N() != 3 {
		t.Fatalf("a lookup over A evicted B's checkpoint: %v", got)
	}
}

// TestConcurrentAccess hammers the cache from many goroutines searching
// two instance generations while they rebind and purge it (meaningful
// under -race).
func TestConcurrentAccess(t *testing.T) {
	gens := []*graph.Instance{buildInstance(t, 5), buildInstance(t, 5)}
	users := gens[0].Users()
	cps := make([][]*score.ProxCheckpoint, len(gens))
	for g, in := range gens {
		for i, u := range users {
			cps[g] = append(cps[g], checkpointAt(in, u, 1+i%4))
		}
	}
	c := New(8 << 10) // small enough to force constant eviction
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := (w + i/50) % len(gens)
				if i%50 == 0 {
					c.Bind(gens[g])
				}
				u := users[(w+i)%len(users)]
				k := Key{Seeker: u, Params: score.DefaultParams()}
				if cp := c.Get(k, gens[g]); cp != nil {
					_ = cp.N()
				}
				c.Put(k, cps[g][(w+i)%len(users)])
				if i%50 == 25 {
					c.Purge()
				}
			}
		}(w)
	}
	wg.Wait()
}
