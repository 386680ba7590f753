// Host-grouping property suite: a coordinator over multi-shard worker
// processes (one postings exchange per host) must answer byte-identically
// to the in-process shard set across every way of packing shards
// onto hosts — and a host that dies mid-fetch must fail over every shard
// it carried, with the answer exact.
package dshard

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/score"
	"s3/internal/snap"
)

// startHostWorkers boots one worker process per host, each hosting the
// given shard group, and returns the host URLs plus a shutdown func.
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
// in several arrangements — answers byte-identically to one engine over
// the same set's base instance and merged index, across datasets × N ∈ {1, 2, 4}, cold and warm.
func TestHostGroupedEqualsSharded(t *testing.T) {
	for name, spec := range datasets(t) {
		in, ix := buildInstance(t, spec)
		for _, n := range []int{1, 2, 4} {
			manifestPath := writeSet(t, in, ix, n)
			set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
			if err != nil {
				t.Fatal(err)
			}
			se := core.NewEngine(set.Set.Base, set.Set.Index)

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

// dieMidReply wraps a worker handler so that every postings reply is cut
// after cut(n) of its n bytes — a negative cut before the status line —
// and its connection aborted, as when the worker process dies mid-write.
func dieMidReply(inner http.Handler, cut func(n int) int) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != pathPostings {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		if k := cut(rec.Body.Len()); k >= 0 {
			rw.WriteHeader(rec.Code)
			rw.Write(rec.Body.Bytes()[:k])
			http.NewResponseController(rw).Flush()
		}
		panic(http.ErrAbortHandler)
	})
}

// TestChaosKillMultiShardWorker kills a worker hosting BOTH shards in the
// middle of every reply it writes — before a byte, after the header,
// halfway, one byte short: every shard it carried must fail over to the
// surviving host, and the answer must stay byte-identical. The battery is
// repeated so the victim (picked for every other search) is hit several
// times.
func TestChaosKillMultiShardWorker(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	qs := chaosQueries(t, set)

	for name, cut := range map[string]func(int) int{
		"no-reply":  func(int) int { return -1 },
		"header":    func(int) int { return recordHeader },
		"half":      func(n int) int { return n / 2 },
		"last-byte": func(n int) int { return n - 1 },
	} {
		// Two hosts, each hosting both shards (replicas of each other).
		var urls []string
		for i := 0; i < 2; i++ {
			w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0, 1}, Mode: snap.LoadMmap})
			if err := w.Load(); err != nil {
				t.Fatal(err)
			}
			h := w.Handler()
			if i == 0 {
				h = dieMidReply(h, cut)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
		}
		track := leakCheck(t)
		coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 2*time.Second)
		track(coord.client)
		for pass := 0; pass < 2; pass++ {
			for qi, q := range qs {
				sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
				if err != nil {
					t.Fatalf("%s query %d: %v", name, qi, err)
				}
				if got := metaTranscript(sel, stats); got != q.want {
					t.Fatalf("%s query %d: answer diverged after multi-shard host kill\nwant:\n%s\ngot:\n%s",
						name, qi, q.want, got)
				}
			}
		}
		// The dead host carried both shards of at least one search: each
		// one fails over.
		if f := coord.failovers.Load(); f < 2 {
			t.Errorf("%s: multi-shard host killed but only %d failovers recorded (want >= 2)", name, f)
		}
	}
}
