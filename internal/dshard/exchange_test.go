// The exchange budget: how many times a distributed search crosses the
// wire. A search is one postings request per host of its shard cover —
// nothing before it, nothing after it — over a connection the membership
// probe already opened, and the coordinator explores the answer itself.
// The edge cases pin the stops the coordinator reaches without the
// threshold test (exhaustion, the precision floor).
package dshard

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3/internal/core"
	"s3/internal/doc"
	"s3/internal/graph"
	"s3/internal/index"
	"s3/internal/obs"
	"s3/internal/score"
	"s3/internal/snap"
	"s3/internal/text"
)

// wireLog records what a worker was asked: the path of every request but
// the membership probe's one /healthz, and every postings request.
type wireLog struct {
	mu       sync.Mutex
	paths    []string
	postings []postingsRequest
}

func (l *wireLog) wrap(t testing.TB, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			inner.ServeHTTP(rw, req)
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.Error(err)
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		l.mu.Lock()
		l.paths = append(l.paths, req.URL.Path)
		if p, err := readBody(bytes.NewReader(body)); err == nil {
			if r, err := decodePostingsRequest(p); err == nil {
				l.postings = append(l.postings, r)
			}
		}
		l.mu.Unlock()
		inner.ServeHTTP(rw, req)
	})
}

// take returns and clears what was logged since the last take.
func (l *wireLog) take() (paths []string, postings []postingsRequest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	paths, postings = l.paths, l.postings
	l.paths, l.postings = nil, nil
	return paths, postings
}

// loggedHosts boots one worker per shard group behind a wireLog.
func loggedHosts(t *testing.T, manifestPath string, groups [][]int) (urls []string, workers []*Worker, logs []*wireLog) {
	t.Helper()
	for _, g := range groups {
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: g, Mode: snap.LoadMmap})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		l := &wireLog{}
		srv := httptest.NewServer(l.wrap(t, w.Handler()))
		t.Cleanup(srv.Close)
		urls, workers, logs = append(urls, srv.URL), append(workers, w), append(logs, l)
	}
	return urls, workers, logs
}

// batteryQuery is one seeded query with its in-process reference.
type batteryQuery struct {
	seeker graph.NID
	kws    []string
	spec   core.SearchSpec
	want   string
}

const exchangeK = 5

var exchangeParams = score.Params{Gamma: 1.5, Eta: 0.8}

// exchangeBattery draws seekers and keyword sets from a seeded stream and
// answers each with Engine.Search over the unsharded instance.
func exchangeBattery(t *testing.T, in *graph.Instance, ix *index.Index, seed int64) []batteryQuery {
	t.Helper()
	eng := core.NewEngine(in, ix)
	opts := core.Options{K: exchangeK, Params: exchangeParams}
	rng := rand.New(rand.NewSource(seed))
	users, kws := in.Users(), in.SortedKeywordsByFrequency()
	var qs []batteryQuery
	for len(qs) < 24 {
		seeker := users[rng.Intn(len(users))]
		words := []string{in.Dict().String(kws[rng.Intn(len(kws))])}
		if rng.Intn(4) == 0 {
			words = append(words, in.Dict().String(kws[rng.Intn(len(kws))]))
		}
		groupsKw, possible, err := core.ResolveKeywordGroups(in, words)
		if err != nil {
			t.Fatal(err)
		}
		if !possible {
			continue
		}
		rs, stats, err := eng.Search(seeker, words, opts)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, batteryQuery{
			seeker: seeker, kws: words,
			spec: core.SearchSpec{Seeker: seeker, Groups: groupsKw, K: exchangeK, Params: exchangeParams, Epsilon: 1e-12},
			want: engineTranscript(rs, stats),
		})
	}
	return qs
}

// dialCounting makes tr count the connections it dials into n.
func dialCounting(tr *http.Transport, n *atomic.Int64) *http.Transport {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	return tr
}

// TestOneExchangePerHost: over 2 hosts × 2 shards, every search of a
// seeded battery sends each host exactly one request — a postings request
// for the shards it was picked for — and nothing else, dials no connection
// after the first search, and answers byte-identically to Engine.Search.
// The membership probe before it asks each host for /healthz alone.
func TestOneExchangePerHost(t *testing.T) {
	in, ix := buildInstance(t, datasets(t)["twitter"])
	manifestPath := writeSet(t, in, ix, 4)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]int{{0, 1}, {2, 3}}
	urls, _, logs := loggedHosts(t, manifestPath, groups)
	var dials atomic.Int64
	client := &http.Client{Timeout: 10 * time.Second, Transport: dialCounting(newTransport(len(urls)), &dials)}
	leakCheck(t)(client)
	c, err := NewCoordinator(CoordinatorConfig{WorkerURLs: urls, ShardCount: 4, SetID: m.Layout.SetID,
		Substrate: m.Base, Layout: m.Layout, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	c.AttachRegistry(obs.NewRegistry())
	if err := c.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	var afterFirst int64
	for i, q := range exchangeBattery(t, in, ix, 20) {
		sel, stats, err := c.Search(q.spec, core.CoordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := metaTranscript(sel, stats); got != q.want {
			t.Fatalf("seeker=%d kws=%v: answer diverged\nwant:\n%s\ngot:\n%s", q.seeker, q.kws, q.want, got)
		}
		for h, l := range logs {
			paths, reqs := l.take()
			if len(paths) != 1 || paths[0] != pathPostings || len(reqs) != 1 {
				t.Fatalf("search %d: host %d was asked %v", i, h, paths)
			}
			if !slices.Equal(reqs[0].shards, groups[h]) || !slices.Equal(reqs[0].kws, queryKeywords(q.spec.Groups)) {
				t.Fatalf("search %d: host %d asked for shards %v keywords %v", i, h, reqs[0].shards, reqs[0].kws)
			}
		}
		if i == 0 {
			afterFirst = dials.Load()
		}
	}
	if got := dials.Load() - afterFirst; got != 0 {
		t.Fatalf("the battery dialed %d connections after its first search", got)
	}
	if got := c.metrics.seconds.Count(); got != uint64(24*len(groups)) {
		t.Fatalf("s3_coord_rpc_seconds counted %d fetches for 24 searches over %d hosts", got, len(groups))
	}
}

// TestExchangeBudget: the any-time stop bounds do not change what a search
// costs on the wire. Under a wall-clock budget and under an iteration cap,
// every search of a seeded battery still sends each host exactly one
// postings request, and answers byte-identically to Engine.Search under the
// same bound; the cap does stop some of them.
func TestExchangeBudget(t *testing.T) {
	in, ix := buildInstance(t, datasets(t)["twitter"])
	manifestPath := writeSet(t, in, ix, 4)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	urls, _, logs := loggedHosts(t, manifestPath, [][]int{{0, 1}, {2, 3}})
	c := newCoordinator(t, m.Layout, urls)
	for _, l := range logs {
		l.take() // the probe's manifest fetch
	}
	eng := core.NewEngine(in, ix)
	const maxIter = 5
	atCap := 0
	for _, bound := range []struct {
		copts core.CoordOptions
		opts  core.Options
	}{
		{core.CoordOptions{Budget: time.Hour}, core.Options{K: exchangeK, Params: exchangeParams, Budget: time.Hour}},
		{core.CoordOptions{MaxIterations: maxIter}, core.Options{K: exchangeK, Params: exchangeParams, MaxIterations: maxIter}},
	} {
		for i, q := range exchangeBattery(t, in, ix, 22) {
			rs, rstats, err := eng.Search(q.seeker, q.kws, bound.opts)
			if err != nil {
				t.Fatal(err)
			}
			sel, stats, err := c.Search(q.spec, bound.copts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metaTranscript(sel, stats), engineTranscript(rs, rstats); got != want {
				t.Fatalf("%+v seeker=%d kws=%v: answer diverged\nwant:\n%s\ngot:\n%s", bound.copts, q.seeker, q.kws, want, got)
			}
			if bound.copts.MaxIterations > 0 && stats.Reason == core.StopBudget && stats.Iterations == maxIter {
				atCap++
			}
			for h, l := range logs {
				if paths, _ := l.take(); len(paths) != 1 || paths[0] != pathPostings {
					t.Fatalf("%+v search %d: host %d was asked %v", bound.copts, i, h, paths)
				}
			}
		}
	}
	if atCap == 0 {
		t.Fatalf("no search of the battery stopped at MaxIterations=%d", maxIter)
	}
}

// TestFailoverSessionsBeginLikeAnyOther: the fetch a failover sends a
// replica is asked like any other — the same keywords and trace id as the
// fetch that failed, for exactly the failed host's shards — and the answer
// across it is byte-identical.
func TestFailoverSessionsBeginLikeAnyOther(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })

	// Two hosts, replicas of each other; the first dies halfway through
	// every reply.
	var urls []string
	var logs []*wireLog
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0, 1}, Mode: snap.LoadMmap})
		if err := w.Load(); err != nil {
			t.Fatal(err)
		}
		h := w.Handler()
		if i == 0 {
			h = dieMidReply(h, func(n int) int { return n / 2 })
		}
		l := &wireLog{}
		srv := httptest.NewServer(l.wrap(t, h))
		t.Cleanup(srv.Close)
		urls, logs = append(urls, srv.URL), append(logs, l)
	}
	track := leakCheck(t)
	coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 2*time.Second)
	track(coord.client)
	for _, l := range logs {
		l.take() // the probe's manifest fetch
	}
	failedOver := 0
	for qi, q := range chaosQueries(t, set) {
		traceID := uint64(qi + 1)
		sel, stats, err := coord.Search(q.spec, core.CoordOptions{Trace: &obs.Trace{ID: traceID, Root: obs.NewSpan("search")}})
		if err != nil {
			t.Fatal(err)
		}
		if got := metaTranscript(sel, stats); got != q.want {
			t.Fatalf("query %d: answer diverged across the failover\nwant:\n%s\ngot:\n%s", qi, q.want, got)
		}
		_, dead := logs[0].take()
		_, live := logs[1].take()
		for _, r := range append(slices.Clone(dead), live...) {
			if r.traceID != traceID || !slices.Equal(r.kws, queryKeywords(q.spec.Groups)) {
				t.Fatalf("query %d: a fetch asked for keywords %v under trace %d, want %v under %d",
					qi, r.kws, r.traceID, queryKeywords(q.spec.Groups), traceID)
			}
		}
		if len(dead) == 0 {
			continue
		}
		if len(live) == 0 || !slices.Equal(live[len(live)-1].shards, dead[0].shards) {
			t.Fatalf("query %d: the dead host was asked for shards %v, the replica then for %v", qi, dead[0].shards, live)
		}
		failedOver++
		// Re-admit the dead host, so the rotation picks it again.
		if err := coord.Probe(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if failedOver < 2 || coord.failovers.Load() < 2 {
		t.Fatalf("%d searches failed over (%d shard failovers), want >= 2", failedOver, coord.failovers.Load())
	}
}

// TestGroupingIndependence: when replicas group shards differently, the
// cover — and so how a search's shards are grouped into requests — changes
// from search to search, and the answer does not: every host serves, and
// every search answers byte-identically to Engine.Search.
func TestGroupingIndependence(t *testing.T) {
	in, ix := buildInstance(t, datasets(t)["twitter"])
	manifestPath := writeSet(t, in, ix, 4)
	m, err := snap.OpenManifest(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	// Every shard on two hosts of different groupings.
	urls, _, logs := loggedHosts(t, manifestPath, [][]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}})
	c := newCoordinator(t, m.Layout, urls)
	for _, q := range exchangeBattery(t, in, ix, 21) {
		for rep := 0; rep < 2; rep++ {
			sel, stats, err := c.Search(q.spec, core.CoordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := metaTranscript(sel, stats); got != q.want {
				t.Fatalf("seeker=%d kws=%v: answer depends on the grouping\nwant:\n%s\ngot:\n%s", q.seeker, q.kws, q.want, got)
			}
		}
	}
	for h, l := range logs {
		if _, reqs := l.take(); len(reqs) == 0 {
			t.Fatalf("host %d never served a search", h)
		}
	}
}

// islandSet is a hand-built 2-shard set whose searches for "kw" run into
// the edge cases of the stop: an exhausted exploration and the precision
// floor. A matched component nobody reaches keeps the search from ever
// admitting everything. Acyclic, the seeker's island is one edge to a
// friend who posted nothing: the exploration is exhausted after a couple
// of rounds (the stop test passes on that very round — nothing reachable
// can score — so the reason reads threshold). Cyclic, the island is a
// directed triangle of users, seeker → friend → third → seeker, with no
// document: the border is one user, never the one it was two steps
// before, so the two-step ratio stays infinite and the source bound of
// the unreached component never drops to 0 (a two-cycle's ratio turns
// finite and does zero it: score.Iterator.SourceTailBound). That
// component holds "kw" in so many fragments that its threshold outlasts
// the tail: only the precision floor stops the search.
func islandSet(t *testing.T, cyclic bool) (*snap.ShardSetSnapshot, string) {
	t.Helper()
	b := graph.NewBuilder(text.Analyzer{Lang: text.None})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	post := func(uri, user string, fragments int) {
		root := &doc.Node{URI: uri, Keywords: []string{"kw"}}
		for i := 1; i < fragments; i++ {
			root.Children = append(root.Children, &doc.Node{Keywords: []string{"kw"}})
		}
		must(b.AddDocument(root))
		must(b.AddPost(uri, user))
	}
	must(b.AddUser("seeker"))
	must(b.AddUser("friend"))
	must(b.AddUser("hermit"))
	must(b.AddSocial("seeker", "friend", 1, ""))
	if cyclic {
		must(b.AddUser("third"))
		must(b.AddSocial("friend", "third", 1, ""))
		must(b.AddSocial("third", "seeker", 1, ""))
	}
	post("far", "hermit", 4000)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := writeSet(t, in, index.Build(in), 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set, manifestPath
}

// TestFinalizeAtConsumedRound: a search whose exploration is exhausted,
// and one only the precision floor stops, finalize at the round they
// stopped at with the in-process answer and stats, after one exchange per
// host.
func TestFinalizeAtConsumedRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cyclic bool
		reason core.StopReason
	}{
		{"exhausted", false, core.StopThreshold},
		{"precision", true, core.StopPrecision},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, manifestPath := islandSet(t, tc.cyclic)
			in := set.Set.Base
			seeker, _ := in.NIDOf("seeker")
			groups, possible, err := core.ResolveKeywordGroups(in, []string{"kw"})
			if err != nil || !possible {
				t.Fatal("unusable query")
			}
			spec := core.SearchSpec{Seeker: seeker, Groups: groups, K: exchangeK, Params: exchangeParams, Epsilon: 1e-12}
			se := core.NewEngine(in, set.Set.Index)
			rs, rstats, err := se.Search(seeker, []string{"kw"}, core.Options{K: exchangeK, Params: exchangeParams})
			if err != nil {
				t.Fatal(err)
			}
			if rstats.Reason != tc.reason {
				t.Fatalf("fixture stops by %s after %d rounds, want %s", rstats.Reason, rstats.Iterations, tc.reason)
			}

			urls, _, logs := loggedHosts(t, manifestPath, [][]int{{0}, {1}})
			c := newCoordinator(t, set.Set.Layout, urls)
			for _, l := range logs {
				l.take() // the probe's manifest fetch
			}
			sel, stats, err := c.Search(spec, core.CoordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metaTranscript(sel, stats), engineTranscript(rs, rstats); got != want {
				t.Fatalf("answer diverged\nwant:\n%s\ngot:\n%s", want, got)
			}
			for h, l := range logs {
				if paths, _ := l.take(); len(paths) != 1 {
					t.Fatalf("host %d was asked %v for a %d-round search", h, paths, stats.Iterations)
				}
			}
		})
	}
}
