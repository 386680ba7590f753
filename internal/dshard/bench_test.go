package dshard

import (
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/datagen"
	"s3/internal/obs"
	"s3/internal/score"
	"s3/internal/snap"
)

type benchQuery struct {
	spec core.SearchSpec
	kws  []string
}

// benchTopology stands up the shared benchmark fixture: a 2-shard set
// served both by an in-process sharded engine and by a coordinator over
// loopback worker processes, plus the query battery. proxBytes sets the
// workers' frontier-cache budget: negative keeps every distributed
// iteration cold (the battery repeats across b.N, so an enabled cache
// would silently warm the "cold" numbers).
func benchTopology(b *testing.B, proxBytes int64) (*core.ShardedEngine, *Coordinator, []*Worker, []benchQuery) {
	b.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 300, 1200, 17
	spec, _ := datagen.Twitter(o)
	in, ix := buildInstance(b, spec)
	const shards = 2
	manifestPath := writeSet(b, in, ix, shards)

	set, err := snap.OpenShardSet(manifestPath, snap.LoadMmap)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { set.Close() })
	engines := make([]*core.Engine, shards)
	for i := range engines {
		engines[i] = core.NewEngine(set.Set.Shards[i], set.Set.Indexes[i])
	}
	se, err := core.NewShardedEngine(engines)
	if err != nil {
		b.Fatal(err)
	}

	workers := make([]*Worker, shards)
	urls := make([]string, shards)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{
			ManifestPath: manifestPath, Shard: i, Mode: snap.LoadMmap, ProxCacheBytes: proxBytes,
		})
		if err := workers[i].Load(); err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(workers[i].Handler())
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls,
		ShardCount: shards,
		SetID:      set.Set.Layout.SetID,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := coord.Probe(b.Context()); err != nil {
		b.Fatal(err)
	}

	seekers, kwSets := queries(in)
	params := score.Params{Gamma: 1.5, Eta: 0.8}
	var qs []benchQuery
	for _, seeker := range seekers {
		for _, kws := range kwSets {
			groups, possible, err := core.ResolveKeywordGroups(in, kws)
			if err != nil || !possible {
				continue
			}
			qs = append(qs, benchQuery{
				spec: core.SearchSpec{Seeker: seeker, Groups: groups, K: 5, Params: params, Epsilon: 1e-12},
				kws:  kws,
			})
		}
	}
	if len(qs) == 0 {
		b.Fatal("no benchmark queries")
	}
	return se, coord, workers, qs
}

// drainWorkers waits for the async session teardowns (End posts) of the
// previous searches to land, so cached frontiers are published before
// the measured loop starts.
func drainWorkers(b *testing.B, workers []*Worker) {
	b.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		open := 0
		for _, w := range workers {
			w.mu.Lock()
			open += len(w.sessions)
			w.mu.Unlock()
		}
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("%d worker sessions still open", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkDistributedSearch prices the distributed round protocol: the
// same battery of queries through the in-process sharded engine and
// through a coordinator + N loopback worker processes. The delta is the
// per-round scatter/gather cost (HTTP round trips × exploration depth) —
// the latency a deployment pays for per-shard memory isolation.
func BenchmarkDistributedSearch(b *testing.B) {
	se, coord, _, qs := benchTopology(b, -1)
	params := score.Params{Gamma: 1.5, Eta: 0.8}

	b.Run("sharded-inproc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, _, err := se.Search(q.spec.Seeker, q.kws, core.Options{K: 5, Params: params}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("distributed-loopback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, _, err := coord.Search(q.spec, core.CoordOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistributedSearchWarm prices worker-side warm frontiers: the
// same topology with the workers' default frontier cache enabled, primed
// by one pass over the battery — the measured loop resumes each seeker's
// cached exploration instead of re-propagating from depth 0. The delta
// against BenchmarkDistributedSearch/distributed-loopback is what a
// seeker-skewed workload saves per repeated-seeker query.
func BenchmarkDistributedSearchWarm(b *testing.B) {
	_, coord, workers, qs := benchTopology(b, DefaultProxCacheBytes)
	for _, q := range qs {
		if _, _, err := coord.Search(q.spec, core.CoordOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	drainWorkers(b, workers)
	warm0 := uint64(0)
	for _, w := range workers {
		warm0 += w.warmResumes.Load()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, _, err := coord.Search(q.spec, core.CoordOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	warm1 := uint64(0)
	for _, w := range workers {
		warm1 += w.warmResumes.Load()
	}
	if warm1 <= warm0 {
		b.Fatal("measured loop never resumed a cached frontier")
	}
}

// BenchmarkTracedDistributedSearch prices full tracing on the same
// distributed topology: every search carries a trace whose id crosses
// the wire, every worker records executor spans into the responses, and
// the coordinator stitches the round tree. The delta against
// BenchmarkDistributedSearch/distributed-loopback is the all-in cost of
// ?trace=1 (span recording + wire blocks + tree assembly).
func BenchmarkTracedDistributedSearch(b *testing.B) {
	_, coord, _, qs := benchTopology(b, -1)

	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		tr := obs.NewTrace("search")
		if _, _, err := coord.Search(q.spec, core.CoordOptions{Trace: tr}); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// hostBenchTopology is benchTopology with the shards packed onto hosts
// by groups: one worker process per group, each hosting its shards off
// one substrate mapping.
func hostBenchTopology(b *testing.B, groups [][]int, proxBytes int64) (*core.ShardedEngine, *Coordinator, []*Worker, []benchQuery) {
	b.Helper()
	o := datagen.DefaultTwitterOptions()
	o.Users, o.Tweets, o.Seed = 300, 1200, 17
	spec, _ := datagen.Twitter(o)
	in, ix := buildInstance(b, spec)
	const shards = 2
	manifestPath := writeSet(b, in, ix, shards)

	set, err := snap.OpenShardSet(manifestPath, snap.LoadMmap)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { set.Close() })
	engines := make([]*core.Engine, shards)
	for i := range engines {
		engines[i] = core.NewEngine(set.Set.Shards[i], set.Set.Indexes[i])
	}
	se, err := core.NewShardedEngine(engines)
	if err != nil {
		b.Fatal(err)
	}

	workers := make([]*Worker, len(groups))
	urls := make([]string, len(groups))
	for i, g := range groups {
		workers[i] = NewWorker(WorkerConfig{
			ManifestPath: manifestPath, Shards: g, Mode: snap.LoadMmap, ProxCacheBytes: proxBytes,
		})
		if err := workers[i].Load(); err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(workers[i].Handler())
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls,
		ShardCount: shards,
		SetID:      set.Set.Layout.SetID,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := coord.Probe(b.Context()); err != nil {
		b.Fatal(err)
	}

	seekers, kwSets := queries(in)
	params := score.Params{Gamma: 1.5, Eta: 0.8}
	var qs []benchQuery
	for _, seeker := range seekers {
		for _, kws := range kwSets {
			groupsKw, possible, err := core.ResolveKeywordGroups(in, kws)
			if err != nil || !possible {
				continue
			}
			qs = append(qs, benchQuery{
				spec: core.SearchSpec{Seeker: seeker, Groups: groupsKw, K: 5, Params: params, Epsilon: 1e-12},
				kws:  kws,
			})
		}
	}
	if len(qs) == 0 {
		b.Fatal("no benchmark queries")
	}
	return se, coord, workers, qs
}

// BenchmarkHostGroupedSearch prices host grouping: the same 2-shard
// battery through the in-process sharded engine (the floor), through
// one single-shard worker per host (the PR-8 deployment), and through
// ONE worker hosting both shards — one shared proximity iterator, one
// beginset/rounds RPC per host per batch. Cold rows keep the frontier
// cache off; the warm row primes the co-hosted worker's cache first.
// The maxprocs1 row pins GOMAXPROCS=1: with no parallelism to hide the
// second iterator, sharing it is pure savings.
func BenchmarkHostGroupedSearch(b *testing.B) {
	params := score.Params{Gamma: 1.5, Eta: 0.8}
	runDistributed := func(b *testing.B, coord *Coordinator, qs []benchQuery) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, _, err := coord.Search(q.spec, core.CoordOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("sharded-inproc", func(b *testing.B) {
		se, _, _, qs := hostBenchTopology(b, [][]int{{0}, {1}}, -1)
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, _, err := se.Search(q.spec.Seeker, q.kws, core.Options{K: 5, Params: params}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split-hosts-cold", func(b *testing.B) {
		_, coord, _, qs := hostBenchTopology(b, [][]int{{0}, {1}}, -1)
		runDistributed(b, coord, qs)
	})
	b.Run("cohost-cold", func(b *testing.B) {
		_, coord, _, qs := hostBenchTopology(b, [][]int{{0, 1}}, -1)
		runDistributed(b, coord, qs)
	})
	b.Run("cohost-warm", func(b *testing.B) {
		_, coord, workers, qs := hostBenchTopology(b, [][]int{{0, 1}}, DefaultProxCacheBytes)
		for _, q := range qs {
			if _, _, err := coord.Search(q.spec, core.CoordOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		drainWorkers(b, workers)
		b.ResetTimer()
		runDistributed(b, coord, qs)
	})
	b.Run("cohost-cold-maxprocs1", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		_, coord, _, qs := hostBenchTopology(b, [][]int{{0, 1}}, -1)
		runDistributed(b, coord, qs)
	})
	b.Run("split-hosts-cold-maxprocs1", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		_, coord, _, qs := hostBenchTopology(b, [][]int{{0}, {1}}, -1)
		runDistributed(b, coord, qs)
	})
}
