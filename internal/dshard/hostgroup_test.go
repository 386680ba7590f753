// Host-grouping property suite: a coordinator over multi-shard worker
// processes (one shared proximity iterator per host, one round stream
// per host) must answer byte-identically to the in-process sharded
// engine across every way of packing shards onto hosts — and a host that
// dies mid-search must fail over every shard it carried, with the
// fast-forward keeping the answer exact.
package dshard

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/score"
	"s3/internal/snap"
)

// startHostWorkers boots one worker process per host, each hosting the
// given shard group off a single substrate mapping, and returns the host
// URLs plus a shutdown func.
func startHostWorkers(t testing.TB, manifestPath string, groups [][]int, mode snap.LoadMode) ([]string, func()) {
	t.Helper()
	urls := make([]string, len(groups))
	var servers []*httptest.Server
	for i, g := range groups {
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: g, Mode: mode})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		servers = append(servers, srv)
		urls[i] = srv.URL
	}
	return urls, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// hostGroupings enumerates the ways this suite packs n shards onto
// hosts: everything co-hosted, split in halves, and interleaved.
func hostGroupings(n int) [][][]int {
	switch n {
	case 1:
		return [][][]int{{{0}}}
	case 2:
		return [][][]int{{{0, 1}}, {{0}, {1}}}
	case 4:
		return [][][]int{
			{{0, 1}, {2, 3}},
			{{0, 2}, {1, 3}},
			{{0, 1, 2, 3}},
		}
	default:
		return nil
	}
}

// TestHostGroupedEqualsSharded is the tentpole acceptance property: a
// coordinator over host-grouped workers — shards packed onto processes
// in several arrangements — answers byte-identically to core.ShardedEngine
// over the same set, across datasets × N ∈ {1, 2, 4}, cold and warm.
func TestHostGroupedEqualsSharded(t *testing.T) {
	for name, spec := range datasets(t) {
		in, ix := buildInstance(t, spec)
		for _, n := range []int{1, 2, 4} {
			manifestPath := writeSet(t, in, ix, n)
			set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*core.Engine, n)
			for i := 0; i < n; i++ {
				engines[i] = core.NewEngine(set.Set.Shards[i], set.Set.Indexes[i])
			}
			se, err := core.NewShardedEngine(engines)
			if err != nil {
				t.Fatal(err)
			}

			for gi, groups := range hostGroupings(n) {
				urls, stop := startHostWorkers(t, manifestPath, groups, snap.LoadMmap)
				coord := newCoordinator(t, set.Set.Layout, urls)

				seekers, kwSets := queries(in)
				for _, label := range []string{"cold", "warm"} {
					checked := 0
					for _, seeker := range seekers {
						for _, kws := range kwSets {
							opts := core.Options{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
							rs, sstats, err := se.Search(seeker, kws, opts)
							if err != nil {
								t.Fatal(err)
							}
							groupsKw, possible, err := core.ResolveKeywordGroups(in, kws)
							if err != nil {
								t.Fatal(err)
							}
							if !possible {
								continue
							}
							want := engineTranscript(rs, sstats)
							sspec := core.SearchSpec{Seeker: seeker, Groups: groupsKw, K: 5, Params: opts.Params, Epsilon: 1e-12}
							sel, dstats, err := coord.Search(sspec, core.CoordOptions{})
							if err != nil {
								t.Fatalf("%s n=%d groups=%v %s: host-grouped search: %v", name, n, groups, label, err)
							}
							if got := metaTranscript(sel, dstats); got != want {
								t.Fatalf("%s n=%d groups=%v %s seeker=%d kws=%v: host-grouped answer diverged\nsharded:\n%s\ndistributed:\n%s",
									name, n, groups, label, seeker, kws, want, got)
							}
							checked++
						}
					}
					if checked == 0 {
						t.Fatalf("%s n=%d grouping %d %s: no queries checked", name, n, gi, label)
					}
				}
				stop()
			}
			set.Close()
		}
	}
}

// scrapeCounter fetches a worker's /metrics and returns the value of an
// unlabeled counter line ("name value").
func scrapeCounter(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parsing %s: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found on %s", name, baseURL)
	return 0
}

// TestHostSharedIteratorSteps pins the tentpole mechanism in /metrics:
// with both shards co-hosted, the worker steps ONE shared proximity
// iterator per round — half the steps two single-shard hosts spend
// answering the same queries (byte-identity guarantees the same rounds).
func TestHostSharedIteratorSteps(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}

	run := func(groups [][]int) (steps, rounds float64, urls []string) {
		u, stop := startHostWorkers(t, manifestPath, groups, snap.LoadMmap)
		defer stop()
		c, err := NewCoordinator(CoordinatorConfig{
			WorkerURLs: u, ShardCount: len(m.Layout.Shards), SetID: m.Layout.SetID,
			Client: &http.Client{Timeout: 10 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Probe(context.Background()); err != nil {
			t.Fatal(err)
		}
		// One-round streams: no worker steps past the round it was asked
		// for, so the counters hold the rounds the searches consumed, not
		// a hang-up's timing.
		c.streamCap = 1
		seekers, kwSets := queries(in)
		for _, seeker := range seekers {
			for _, kws := range kwSets {
				groupsKw, possible, err := core.ResolveKeywordGroups(in, kws)
				if err != nil || !possible {
					continue
				}
				spec := core.SearchSpec{Seeker: seeker, Groups: groupsKw, K: 5,
					Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}
				if _, _, err := c.Search(spec, core.CoordOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, url := range u {
			steps += scrapeCounter(t, url, "s3_worker_iter_steps_total")
			rounds += scrapeCounter(t, url, "s3_worker_shard_rounds_total")
		}
		return steps, rounds, u
	}

	sharedSteps, sharedRounds, _ := run([][]int{{0, 1}})
	splitSteps, splitRounds, _ := run([][]int{{0}, {1}})

	if sharedSteps <= 0 {
		t.Fatal("co-hosted worker recorded no iterator steps")
	}
	// Steps are counted once per executed round for the WHOLE host: each
	// member's work counter can tick at most once per step, and with two
	// members sharing rounds the work total must exceed the step total.
	if sharedRounds > 2*sharedSteps {
		t.Errorf("impossible fan-out: %v member rounds from %v shared steps (max 2 per step)",
			sharedRounds, sharedSteps)
	}
	if sharedRounds <= sharedSteps {
		t.Errorf("no sharing observed: %v member rounds from %v steps — each step should feed both shards",
			sharedRounds, sharedSteps)
	}
	// The headline: the co-hosted topology steps its one shared iterator
	// roughly once where the split topology steps twice; assert
	// "measurably fewer", not exact halving.
	if 3*sharedSteps > 2*splitSteps {
		t.Errorf("shared iterator not measurably cheaper: co-hosted %v steps vs split hosts %v",
			sharedSteps, splitSteps)
	}
	if splitRounds < sharedRounds {
		t.Errorf("split topology did less round work (%v) than co-hosted (%v)", splitRounds, sharedRounds)
	}
}

// TestHostSharedProxCacheBudget pins per-process proximity-cache
// budgeting: a worker hosting two shards keeps ONE checkpoint per seeker
// (not one per hosted shard), serves warm resumes from it, and respects
// a halved byte budget across the traffic of both shards.
func TestHostSharedProxCacheBudget(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	seekers, kwSets := queries(in)

	runPasses := func(proxBytes int64, passes int) (w *Worker, url string) {
		w = NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0, 1},
			Mode: snap.LoadMmap, ProxCacheBytes: proxBytes})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		coord := newCoordinator(t, m.Layout, []string{srv.URL})
		for p := 0; p < passes; p++ {
			for _, seeker := range seekers {
				for _, kws := range kwSets {
					groupsKw, possible, err := core.ResolveKeywordGroups(in, kws)
					if err != nil || !possible {
						continue
					}
					spec := core.SearchSpec{Seeker: seeker, Groups: groupsKw, K: 5,
						Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}
					if _, _, err := coord.Search(spec, core.CoordOptions{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Ends are posted asynchronously; checkpoints publish when the
			// session closes, so settle before reading the cache.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := w.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
		return w, srv.URL
	}

	_, url := runPasses(0, 2) // default budget, cold + warm pass
	entries := scrapeCounter(t, url, "s3_proxcache_entries")
	bytes := scrapeCounter(t, url, "s3_proxcache_bytes")
	hits := scrapeCounter(t, url, "s3_proxcache_hits_total")
	warm := scrapeCounter(t, url, "s3_worker_warm_resumes_total")
	if entries <= 0 || bytes <= 0 {
		t.Fatalf("no checkpoints cached (entries=%v bytes=%v)", entries, bytes)
	}
	// One shared exploration per seeker for the WHOLE host — co-hosting a
	// second shard must not double the cache population.
	if int(entries) > len(seekers) {
		t.Errorf("cache holds %v entries for %d seekers — expected one per seeker, not per hosted shard",
			entries, len(seekers))
	}
	if hits <= 0 || warm <= 0 {
		t.Errorf("warm pass over a co-hosted worker resumed nothing (hits=%v warm_resumes=%v)", hits, warm)
	}

	// Halve the budget: both shards' traffic shares it, and the cache
	// must stay under it.
	halved := int64(bytes) / 2
	if halved < 1 {
		t.Fatalf("cache too small to halve (%v bytes)", bytes)
	}
	_, url2 := runPasses(halved, 2)
	if b := scrapeCounter(t, url2, "s3_proxcache_bytes"); int64(b) > halved {
		t.Errorf("halved budget exceeded: %v bytes cached, budget %d", b, halved)
	}
}

// TestChaosKillMultiShardWorker kills a worker hosting BOTH shards
// mid-stream after f rounds of every session it serves: every shard it
// carried must fail over to the surviving host (re-begin + fast-forward)
// and the answer must stay byte-identical. The battery is the queries that
// run past round f+1, repeated so the victim (picked for every other
// search) is hit several times.
func TestChaosKillMultiShardWorker(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	qs := deepChaosQueries(t, chaosQueries(t, set))

	for _, after := range []int{0, 1, 2, 4} {
		// Two hosts, each hosting both shards (replicas of each other).
		urls, workers, _ := loggedHosts(t, manifestPath, [][]int{{0, 1}, {0, 1}})
		cutStreamsAt(workers[0], uint32(after)+1)
		track := leakCheck(t, workers)
		coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 2*time.Second)
		track(coord.client)
		for searches := 0; searches < 2*(after+2); {
			for qi, q := range qs {
				sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
				if err != nil {
					t.Fatalf("after=%d query %d: %v", after, qi, err)
				}
				if got := metaTranscript(sel, stats); got != q.want {
					t.Fatalf("after=%d query %d: answer diverged after multi-shard host kill\nwant:\n%s\ngot:\n%s",
						after, qi, q.want, got)
				}
				searches++
			}
		}
		// The dead host carried both shards of at least one search: each
		// one fails over independently.
		if f := coord.failovers.Load(); f < 2 {
			t.Errorf("after=%d: multi-shard host killed but only %d failovers recorded (want >= 2)", after, f)
		}
	}
}
