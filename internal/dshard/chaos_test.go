// Chaos property suite: coordinated searches driven through a
// fault-injecting transport (internal/faultnet). As long as every shard
// keeps one healthy replica, any schedule of resets, stalls, truncations
// and bit flips leaves the answer byte-identical to the in-process sharded
// engine; when a shard is lost entirely, partial mode degrades to the
// surviving shards and strict mode errors cleanly; a cancelled search
// returns at once and leaves nothing running.
package dshard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/faultnet"
	"s3/internal/score"
	"s3/internal/snap"
)

// chaosTopology is 2 shards × 2 replicas: worker i serves shard i%2, so
// the replicas of shard s are workers {s, s+2}.
func chaosTopology(t *testing.T) (*snap.ShardSetSnapshot, []*Worker, []*httptest.Server) {
	t.Helper()
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	workers := make([]*Worker, 4)
	servers := make([]*httptest.Server, 4)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{i % 2}, Mode: snap.LoadMmap})
		if err := workers[i].Load(); err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(workers[i].Handler())
		t.Cleanup(servers[i].Close)
	}
	return set, workers, servers
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// chaosQuery is one reference point: a resolved spec and the transcript
// (and rounds) the in-process shard set produces for it.
type chaosQuery struct {
	spec  core.SearchSpec
	want  string
	iters int
}

// leakCheck is the teardown of a suite that cuts or cancels fetches, set
// up before any search: once the idle connections of every client passed
// to track are closed, the process is back to the goroutine count it had
// here within a bounded wait — no fetch outlives its search.
func leakCheck(t *testing.T) (track func(*http.Client)) {
	t.Helper()
	var clients []*http.Client
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, c := range clients {
				c.CloseIdleConnections()
			}
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines at teardown, %d before the searches:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
	return func(c *http.Client) { clients = append(clients, c) }
}

// chaosQueries computes the reference transcripts over the opened set.
func chaosQueries(t *testing.T, set *snap.ShardSetSnapshot) []chaosQuery {
	t.Helper()
	se := core.NewEngine(set.Set.Base, set.Set.Index)
	in := set.Set.Base
	seekers, kwSets := queries(in)
	var qs []chaosQuery
	for _, seeker := range seekers {
		for _, kws := range kwSets {
			groups, possible, err := core.ResolveKeywordGroups(in, kws)
			if err != nil {
				t.Fatal(err)
			}
			if !possible {
				continue
			}
			opts := core.Options{K: 5, Params: score.Params{Gamma: 1.5, Eta: 0.8}}
			rs, stats, err := se.Search(seeker, kws, opts)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, chaosQuery{
				spec: core.SearchSpec{Seeker: seeker, Groups: groups, K: 5,
					Params: opts.Params, Epsilon: 1e-12},
				want:  engineTranscript(rs, stats),
				iters: stats.Iterations,
			})
		}
	}
	if len(qs) == 0 {
		t.Fatal("no usable chaos queries")
	}
	return qs
}

func chaosCoordinator(t *testing.T, set *snap.ShardSetSnapshot, urls []string,
	tr http.RoundTripper, timeout time.Duration) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		WorkerURLs: urls, ShardCount: len(set.Set.Layout.Shards), SetID: set.Set.Layout.SetID,
		Client: &http.Client{Timeout: timeout, Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosByteIdentity: across seeded fault schedules — one victim
// replica per shard hit with resets, stalls, truncations, bit flips or
// plain latency on its postings endpoint — every answer must stay
// byte-identical to the in-process shard set, because each shard
// keeps one untouched replica to fail over onto.
func TestChaosByteIdentity(t *testing.T) {
	set, _, servers := chaosTopology(t)
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.URL
	}
	qs := chaosQueries(t, set)
	actions := []faultnet.Action{faultnet.Reset, faultnet.Truncate, faultnet.Flip, faultnet.Stall, faultnet.Latency}

	var recovered uint64
	for seed := uint64(1); seed <= 6; seed++ {
		ft := faultnet.NewTransport(newTransport(len(urls)), seed)
		// One victim replica per shard; the other replica stays clean. The
		// schedule only touches the search endpoint, so probes always
		// see the truth.
		for shard := 0; shard < 2; shard++ {
			victim := servers[shard+2*int(seed%2)]
			ft.Add(&faultnet.Rule{
				Host:    hostOf(t, victim.URL),
				Path:    "/shard/v1/",
				After:   int(seed) % 3,
				Count:   2,
				Action:  actions[(int(seed)+shard)%len(actions)],
				Latency: 30 * time.Millisecond,
			})
		}
		coord := chaosCoordinator(t, set, urls, ft, 300*time.Millisecond)
		for qi, q := range qs {
			sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, qi, err)
			}
			if got := metaTranscript(sel, stats); got != q.want {
				t.Fatalf("seed %d query %d: answer diverged under faults\nwant:\n%s\ngot:\n%s",
					seed, qi, q.want, got)
			}
		}
		recovered += coord.failovers.Load() + coord.retries.Load()
	}
	if recovered == 0 {
		t.Error("no failovers or retries across any fault schedule — the chaos rules never fired")
	}
}

// TestChaosShardLoss: when every replica of a shard dies, partial mode
// serves the surviving shards (the answer equals the in-process engine
// over those shards, with the Degradation naming lost and served), and
// strict mode errors cleanly. With every shard dead, even partial mode
// errors.
func TestChaosShardLoss(t *testing.T) {
	set, _, servers := chaosTopology(t)
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.URL
	}
	qs := chaosQueries(t, set)
	coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 2*time.Second)

	// Fully covered: partial mode returns an exact answer, nil degradation.
	sel, stats, deg, err := coord.SearchPartial(qs[0].spec, core.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("full coverage reported degradation %+v", deg)
	}
	if got := metaTranscript(sel, stats); got != qs[0].want {
		t.Fatalf("partial-mode answer diverged at full coverage\nwant:\n%s\ngot:\n%s", qs[0].want, got)
	}

	// Reference for the degraded answer: core.Coordinate over shard 0
	// alone — exactly the postings the coordinator searches once shard 1
	// is lost.
	eng0 := core.NewEngine(set.Set.Base, set.Set.Indexes[0])
	shard0 := func(spec core.SearchSpec) string {
		le := core.NewShardExecutor(eng0, 0)
		sel, stats, err := core.Coordinate([]core.ShardExecutor{le}, spec, core.CoordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return metaTranscript(sel, stats)
	}

	// Kill both replicas of shard 1.
	servers[1].Close()
	servers[3].Close()

	// Strict mode: a clean error, no partial answer smuggled out.
	if _, _, err := coord.Search(qs[0].spec, core.CoordOptions{}); err == nil {
		t.Fatal("strict search succeeded with a shard lost")
	}

	in := set.Set.Base
	seekers, kwSets := queries(in)
	checked := 0
	for _, seeker := range seekers {
		for _, kws := range kwSets {
			groups, possible, err := core.ResolveKeywordGroups(in, kws)
			if err != nil {
				t.Fatal(err)
			}
			if !possible {
				continue
			}
			spec := core.SearchSpec{Seeker: seeker, Groups: groups, K: 5,
				Params: score.Params{Gamma: 1.5, Eta: 0.8}, Epsilon: 1e-12}
			want := shard0(spec)
			sel, stats, deg, err := coord.SearchPartial(spec, core.CoordOptions{})
			if err != nil {
				t.Fatalf("partial search with shard 1 lost: %v", err)
			}
			if deg == nil {
				t.Fatal("lost shard not reported as degradation")
			}
			if len(deg.Lost) != 1 || deg.Lost[0] != 1 || len(deg.Served) != 1 || deg.Served[0] != 0 {
				t.Fatalf("degradation %+v, want lost=[1] served=[0]", deg)
			}
			if got := metaTranscript(sel, stats); got != want {
				t.Fatalf("degraded answer diverged from the surviving shard\nwant:\n%s\ngot:\n%s", want, got)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no degraded queries checked")
	}

	// Kill the rest: even partial mode must error with nothing to serve.
	servers[0].Close()
	servers[2].Close()
	if _, _, _, err := coord.SearchPartial(qs[0].spec, core.CoordOptions{}); err == nil {
		t.Fatal("partial search succeeded with every shard lost")
	}
}

// TestChaosCancellation: cancelling a search's context mid-fetch (the
// serving layer's client-disconnect propagation) returns promptly with the
// context error, and the fetches it abandoned end with it.
func TestChaosCancellation(t *testing.T) {
	set, workers, _ := chaosTopology(t)
	// Every worker holds its postings reply until the request is gone:
	// without cancellation the search would hang, so a prompt return proves
	// the context propagated.
	var held atomic.Int32
	urls := make([]string, len(workers))
	for i, w := range workers {
		inner := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == pathPostings {
				// Read the request to its end, as the worker does: only then
				// does the server watch the connection for a hang-up.
				_, _ = io.Copy(io.Discard, req.Body)
				held.Add(1)
				<-req.Context().Done()
				return
			}
			inner.ServeHTTP(rw, req)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	// The client's bound, and the RPC timeout, outlast the wait below: only
	// the context can end the stall in time.
	coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 30*time.Second)
	leakCheck(t)(coord.client)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.Search(chaosQueries(t, set)[0].spec, core.CoordOptions{Ctx: ctx})
		done <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return held.Load() >= 2 })
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled search returned no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled search did not return")
	}
}
