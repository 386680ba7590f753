// The exchange budget: how many times a distributed search crosses the
// wire, enforced next to the allocation budgets. Rounds stream to the
// coordinator on the beginset reply that opens a session, up to
// maxWorkerBatch of them, so a search of r rounds costs each host exactly
// ceil(r / 64) sequential round-carrying exchanges — one for every search
// of the battery — and the coordinator hangs up on the stream at the round
// it stops at. The same battery re-run with the stream cap forced to other
// sizes pins that grouping rounds into streams never changes a byte, and
// the edge cases pin where a stream must end by itself (exhaustion,
// precision floor — on a failover's replacement session too), carry one
// round (any-time budget) or none (a host nobody matched on), and where
// the worker stops (a cancelled request, a coordinator that hung up).
package dshard

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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

// wireLog records what a worker was asked: every beginset request and the
// `from` of every rounds request, in arrival order.
type wireLog struct {
	mu     sync.Mutex
	begins []beginSetRequest
	froms  []uint32
}

func (l *wireLog) wrap(t testing.TB, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == pathBeginSet || req.URL.Path == pathRounds {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				t.Error(err)
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			rr := recordReader{r: bytes.NewReader(body), fb: new(frameBuf)}
			payload, _ := rr.next()
			l.mu.Lock()
			if req.URL.Path == pathBeginSet {
				if r, err := decodeBeginSetRequest(payload); err == nil {
					l.begins = append(l.begins, r)
				}
			} else if r, err := decodeRoundsRequest(payload); err == nil {
				l.froms = append(l.froms, r.from)
			}
			l.mu.Unlock()
		}
		inner.ServeHTTP(rw, req)
	})
}

// take returns and clears what was logged since the last take.
func (l *wireLog) take() (begins []beginSetRequest, froms []uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	begins, froms = l.begins, l.froms
	l.begins, l.froms = nil, nil
	return begins, froms
}

// loggedHosts boots one worker per shard group behind a wireLog.
func loggedHosts(t *testing.T, manifestPath string, groups [][]int) (urls []string, workers []*Worker, logs []*wireLog) {
	t.Helper()
	for _, g := range groups {
		w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: g, Mode: snap.LoadMmap, ProxCacheBytes: -1})
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

// settle waits until every session the coordinator opened has been
// released (End is asynchronous), so the next search's wire log and the
// workers' step counters start clean.
func settle(t *testing.T, workers []*Worker) {
	t.Helper()
	for _, w := range workers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := w.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// exchangeCounts is the coordinator's own view of one search's traffic.
type exchangeCounts struct {
	beginsets, roundRPCs, batches uint64
	fetched                       float64
	wasted                        uint64
}

func countExchanges(c *Coordinator) exchangeCounts {
	m := c.metrics
	return exchangeCounts{
		beginsets: m.seconds[epBeginSet].Count(),
		roundRPCs: m.seconds[epRounds].Count(),
		batches:   m.batchRounds.Count(),
		fetched:   m.batchRounds.Sum(),
		wasted:    m.specWasted.Value(),
	}
}

func (a exchangeCounts) since(b exchangeCounts) exchangeCounts {
	return exchangeCounts{a.beginsets - b.beginsets, a.roundRPCs - b.roundRPCs, a.batches - b.batches,
		a.fetched - b.fetched, a.wasted - b.wasted}
}

// batteryQuery is one seeded query with its in-process reference.
type batteryQuery struct {
	seeker graph.NID
	kws    []string
	spec   core.SearchSpec
	want   string
	iters  int
	// hostMatched[h] is how many components the query matches on host h.
	hostMatched []int
}

const exchangeK = 5

var exchangeParams = score.Params{Gamma: 1.5, Eta: 0.8}

// exchangeBattery draws seekers and keyword sets from a seeded stream and
// answers each with the in-process sharded engine over the same set.
func exchangeBattery(t *testing.T, set *snap.ShardSetSnapshot, groups [][]int, seed int64, opts core.Options) []batteryQuery {
	t.Helper()
	in := set.Set.Base
	engines := make([]*core.Engine, len(set.Set.Shards))
	for i := range engines {
		engines[i] = core.NewEngine(set.Set.Shards[i], set.Set.Indexes[i])
	}
	se, err := core.NewShardedEngine(engines)
	if err != nil {
		t.Fatal(err)
	}
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
		rs, stats, err := se.Search(seeker, words, opts)
		if err != nil {
			t.Fatal(err)
		}
		q := batteryQuery{
			seeker: seeker, kws: words,
			spec:  core.SearchSpec{Seeker: seeker, Groups: groupsKw, K: opts.K, Params: opts.Params, Epsilon: 1e-12},
			want:  engineTranscript(rs, stats),
			iters: stats.Iterations,
		}
		for _, g := range groups {
			n := 0
			for _, shard := range g {
				n += len(set.Set.Indexes[shard].CompsForGroups(groupsKw))
			}
			q.hostMatched = append(q.hostMatched, n)
		}
		qs = append(qs, q)
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

// exchangeTopology is the 2-host × 2-shard deployment the budget is stated
// over, with registry-backed coordinators so their counters can be read,
// and the connections they dial counted into dials. Its teardown is a leak
// check.
func exchangeTopology(t *testing.T) (set *snap.ShardSetSnapshot, groups [][]int, workers []*Worker, logs []*wireLog,
	dials *atomic.Int64, newCoord func(CoordinatorConfig) *Coordinator) {
	t.Helper()
	in, ix := buildInstance(t, datasets(t)["twitter"])
	manifestPath := writeSet(t, in, ix, 4)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	groups = [][]int{{0, 1}, {2, 3}}
	urls, workers, logs := loggedHosts(t, manifestPath, groups)
	dials = new(atomic.Int64)
	track := leakCheck(t, workers)
	newCoord = func(cfg CoordinatorConfig) *Coordinator {
		cfg.WorkerURLs, cfg.ShardCount, cfg.SetID = urls, 4, set.Set.Layout.SetID
		cfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: dialCounting(newTransport(len(urls)), dials)}
		cfg.Registry = obs.NewRegistry()
		track(cfg.Client)
		c, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Probe(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c
	}
	return set, groups, workers, logs, dials, newCoord
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TestExchangeBudget: per host, a search of r rounds is exactly
// ceil(r/64) sequential round-carrying exchanges — the first being the
// beginset — so one for every search of the battery; the coordinator reads
// no round it does not consume and re-dials at most the one connection per
// host it hung up on; and the any-time bounds cap the first stream exactly
// as they cap every later one.
func TestExchangeBudget(t *testing.T) {
	set, groups, workers, logs, dials, newCoord := exchangeTopology(t)
	hosts := len(groups)
	opts := core.Options{K: exchangeK, Params: exchangeParams}
	qs := exchangeBattery(t, set, groups, 20, opts)

	// run answers q on c, checks the bytes, and returns the coordinator's
	// counter deltas plus what each host's beginset asked for and where its
	// rounds streams started.
	run := func(t *testing.T, c *Coordinator, q batteryQuery, copts core.CoordOptions) (d exchangeCounts, firstRounds []uint32, froms [][]uint32) {
		t.Helper()
		before := countExchanges(c)
		sel, stats, err := c.Search(q.spec, copts)
		if err != nil {
			t.Fatal(err)
		}
		if got := metaTranscript(sel, stats); got != q.want {
			t.Fatalf("seeker=%d kws=%v: answer diverged\nwant:\n%s\ngot:\n%s", q.seeker, q.kws, q.want, got)
		}
		settle(t, workers)
		d = countExchanges(c).since(before)
		if d.beginsets != uint64(hosts) {
			t.Fatalf("%d beginsets for %d hosts", d.beginsets, hosts)
		}
		for h, l := range logs {
			begins, f := l.take()
			if len(begins) != 1 {
				t.Fatalf("host %d saw %d beginsets for one search", h, len(begins))
			}
			firstRounds, froms = append(firstRounds, begins[0].rounds), append(froms, f)
		}
		// Rounds are read on demand: every one read was consumed.
		if d.wasted != 0 || d.fetched != float64(hosts*q.iters) {
			t.Fatalf("seeker=%d kws=%v: read %v rounds, %d unconsumed, but %d hosts consumed %d each",
				q.seeker, q.kws, d.fetched, d.wasted, hosts, q.iters)
		}
		return d, firstRounds, froms
	}
	steps := func() uint64 { return workers[0].iterSteps.Load() + workers[1].iterSteps.Load() }

	deep, unmatchedHosts := 0, 0
	c := newCoord(CoordinatorConfig{})
	dialsBefore := dials.Load()
	for _, q := range qs {
		d, firstRounds, froms := run(t, c, q, core.CoordOptions{})
		if q.iters > 16 {
			deep++
		}
		// A host somebody matched on gets its whole stream on the beginset;
		// a host nobody matched on is asked all the same, runs none, and is
		// stepped by a rounds stream from round 1.
		onBeginset := 0
		for h, matched := range q.hostMatched {
			if firstRounds[h] != maxWorkerBatch {
				t.Fatalf("host %d beginset asked for %d rounds, want %d", h, firstRounds[h], maxWorkerBatch)
			}
			switch {
			case q.iters == 0:
			case matched > 0:
				onBeginset++
				if len(froms[h]) > 0 {
					t.Fatalf("matched host %d: rounds streams from %v for a %d-round search", h, froms[h], q.iters)
				}
			default:
				unmatchedHosts++
				if len(froms[h]) != 1 || froms[h][0] != 1 {
					t.Fatalf("unmatched host %d: rounds streams from %v, want one from round 1", h, froms[h])
				}
			}
		}
		if want := uint64(hosts * ceilDiv(q.iters, maxWorkerBatch)); d.batches != want {
			t.Fatalf("seeker=%d kws=%v: %d rounds took %d round-carrying exchanges over %d hosts, want exactly %d",
				q.seeker, q.kws, q.iters, d.batches, hosts, want)
		}
		if d.roundRPCs != d.batches-uint64(onBeginset) {
			t.Fatalf("seeker=%d kws=%v: %d rounds streams for %d round-carrying exchanges, %d of them on a beginset",
				q.seeker, q.kws, d.roundRPCs, d.batches, onBeginset)
		}
	}
	if deep == 0 || unmatchedHosts == 0 {
		t.Fatalf("battery too shallow: %d searches past 16 rounds, %d unmatched hosts", deep, unmatchedHosts)
	}
	if got := dials.Load() - dialsBefore; got > int64(hosts*len(qs)) {
		t.Fatalf("%d searches dialed %d connections, want at most one per host per search (the one it hung up on)", len(qs), got)
	}

	// Budget > 0: strict lockstep — nothing rides on the beginset (the
	// budget may expire before round 1, and that stop finalizes at tail 0)
	// and every exchange carries one round.
	for _, q := range qs[:8] {
		d, firstRounds, _ := run(t, c, q, core.CoordOptions{Budget: time.Hour})
		for h, r := range firstRounds {
			if r != 0 {
				t.Fatalf("budgeted search: host %d beginset asked for %d rounds, want 0", h, r)
			}
		}
		if d.fetched != float64(d.batches) {
			t.Fatalf("budgeted search of %d rounds: %d exchanges carrying %v rounds, want one round per exchange",
				q.iters, d.batches, d.fetched)
		}
	}

	// MaxIterations = m caps the first stream at m: no worker steps past the
	// round the any-time stop finalizes at.
	const m = 5
	capped := opts
	capped.MaxIterations = m
	atCap := 0
	for _, q := range exchangeBattery(t, set, groups, 20, capped)[:8] {
		before := steps()
		d, firstRounds, _ := run(t, c, q, core.CoordOptions{MaxIterations: m})
		for h, r := range firstRounds {
			if r != m {
				t.Fatalf("MaxIterations=%d: host %d beginset asked for %d rounds", m, h, r)
			}
		}
		if got := steps() - before; got > uint64(hosts*m) {
			t.Fatalf("MaxIterations=%d: hosts stepped %d times", m, got)
		}
		if q.iters == m {
			atCap++
			if d.batches != uint64(hosts) {
				t.Fatalf("MaxIterations=%d: a search stopped by the cap took %d exchanges", m, d.batches)
			}
		}
	}
	if atCap == 0 {
		t.Fatalf("no search of the battery reached MaxIterations=%d", m)
	}
}

// TestFailoverSessionsBeginLikeAnyOther: the single-shard sessions the
// failover layer attaches open the way a cover session does — the rounds
// they fast-forward through stream on their beginset.
func TestFailoverSessionsBeginLikeAnyOther(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	qs := deepChaosQueries(t, chaosQueries(t, set))

	// Two hosts, replicas of each other; the first dies two rounds into
	// every stream.
	urls, workers, logs := loggedHosts(t, manifestPath, [][]int{{0, 1}, {0, 1}})
	cutStreamsAt(workers[0], 3)
	track := leakCheck(t, workers)
	coord := chaosCoordinator(t, set, urls, newTransport(len(urls)), 2*time.Second)
	track(coord.client)
	for qi, q := range qs[:2] {
		sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := metaTranscript(sel, stats); got != q.want {
			t.Fatalf("query %d: answer diverged across the failover\nwant:\n%s\ngot:\n%s", qi, q.want, got)
		}
	}
	if coord.failovers.Load() < 2 {
		t.Fatalf("%d failovers, want both shards of the dead host's search", coord.failovers.Load())
	}
	attached := 0
	for _, l := range logs {
		begins, _ := l.take()
		for _, b := range begins {
			if b.rounds != maxWorkerBatch {
				t.Fatalf("beginset over shards %v asked for %d rounds, want %d", b.shards, b.rounds, maxWorkerBatch)
			}
			if len(b.shards) == 1 {
				attached++
			}
		}
	}
	if attached < 2 {
		t.Fatalf("saw %d failover-attached beginsets, want >= 2", attached)
	}
}

// TestGroupingIndependence: the battery answered with the stream cap forced
// to 1, 3 and 16 returns the same bytes and the same iteration counts as
// the in-process engine.
func TestGroupingIndependence(t *testing.T) {
	set, groups, workers, _, _, newCoord := exchangeTopology(t)
	qs := exchangeBattery(t, set, groups, 21, core.Options{K: exchangeK, Params: exchangeParams})
	for _, hint := range []int{1, 3, 16} {
		c := newCoord(CoordinatorConfig{})
		c.streamCap = hint
		before := countExchanges(c)
		rounds := 0
		for _, q := range qs {
			sel, stats, err := c.Search(q.spec, core.CoordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := metaTranscript(sel, stats); got != q.want {
				t.Fatalf("hint=%d seeker=%d kws=%v: answer depends on the grouping\nwant:\n%s\ngot:\n%s",
					hint, q.seeker, q.kws, q.want, got)
			}
			if stats.Iterations != q.iters {
				t.Fatalf("hint=%d: %d iterations, reference %d", hint, stats.Iterations, q.iters)
			}
			rounds += stats.Iterations
		}
		settle(t, workers)
		// The hook really regrouped: no stream exceeds the forced cap.
		d := countExchanges(c).since(before)
		if d.batches == 0 || d.fetched > float64(d.batches)*float64(hint) {
			t.Fatalf("hint=%d: %d streams carried %v rounds", hint, d.batches, d.fetched)
		}
		if hint == 1 && d.fetched-float64(d.wasted) != float64(len(groups)*rounds) {
			t.Fatalf("hint=1: fetched %v, wasted %d, consumed %d×%d", d.fetched, d.wasted, len(groups), rounds)
		}
	}
}

// islandSet is a hand-built 2-shard set whose searches for "kw" run into
// the two conditions that end a worker's stream by itself. A matched component
// nobody reaches keeps the search from ever admitting everything. Acyclic,
// the seeker's island is one edge to a friend who posted nothing: the
// exploration is exhausted after a couple of rounds (the stop test passes
// on that very round — nothing reachable can score — so the reason reads
// threshold, but the stream must end there all the same). Cyclic, seeker
// and friend follow each other (the border never empties), the friend's
// one document leaves the selection short of k, and the unreached
// component holds "kw" in so many fragments that its threshold outlasts the tail:
// only the precision floor stops the search.
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
		must(b.AddSocial("friend", "seeker", 1, ""))
		post("near", "friend", 1)
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

// TestFinalizeAtConsumedRound: a stream that hits exhaustion or the
// precision floor ends there — on the beginset as on a rounds stream — so
// the finalize that follows finds the worker at exactly the consumed
// round: every executed round was consumed, none wasted. The same holds
// for the replacement sessions of a failover that struck with 16 or 32
// rounds consumed (the worker died before round 17, or 33): their streams
// end at the precision floor too, not a round further.
func TestFinalizeAtConsumedRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cyclic bool
		reason core.StopReason
		// struck, when positive, is how many rounds the first of two
		// replica hosts streams in every session before it dies.
		struck int
	}{
		{"exhausted", false, core.StopThreshold, 0},
		{"precision", true, core.StopPrecision, 0},
		{"failover-at-17", true, core.StopPrecision, 16},
		{"failover-at-33", true, core.StopPrecision, 32},
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
			engines := []*core.Engine{
				core.NewEngine(set.Set.Shards[0], set.Set.Indexes[0]),
				core.NewEngine(set.Set.Shards[1], set.Set.Indexes[1]),
			}
			se, err := core.NewShardedEngine(engines)
			if err != nil {
				t.Fatal(err)
			}
			rs, rstats, err := se.Search(seeker, []string{"kw"}, core.Options{K: exchangeK, Params: exchangeParams})
			if err != nil {
				t.Fatal(err)
			}
			if rstats.Reason != tc.reason || rstats.Iterations%maxWorkerBatch == 0 {
				t.Fatalf("fixture stops by %s after %d rounds, want %s mid-stream", rstats.Reason, rstats.Iterations, tc.reason)
			}
			if tc.struck > 0 {
				finalizeAfterFailover(t, set, manifestPath, spec, engineTranscript(rs, rstats), rstats.Iterations, tc.struck)
				return
			}

			urls, workers, _ := loggedHosts(t, manifestPath, [][]int{{0}, {1}})
			client := &http.Client{Timeout: 10 * time.Second, Transport: newTransport(len(urls))}
			leakCheck(t, workers)(client)
			c, err := NewCoordinator(CoordinatorConfig{WorkerURLs: urls, ShardCount: 2, SetID: set.Set.Layout.SetID,
				Client: client, Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Probe(context.Background()); err != nil {
				t.Fatal(err)
			}
			sel, stats, err := c.Search(spec, core.CoordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metaTranscript(sel, stats), engineTranscript(rs, rstats); got != want {
				t.Fatalf("answer diverged\nwant:\n%s\ngot:\n%s", want, got)
			}
			settle(t, workers)
			d := countExchanges(c)
			if d.wasted != 0 || d.fetched != float64(2*stats.Iterations) {
				t.Fatalf("%d-round search: hosts returned %v rounds, %d unconsumed — the finalize did not find them at the consumed round",
					stats.Iterations, d.fetched, d.wasted)
			}
			// The worker that matched stepped exactly the consumed rounds.
			stepped := uint64(0)
			for _, w := range workers {
				stepped = max(stepped, w.iterSteps.Load())
			}
			if stepped != uint64(stats.Iterations) {
				t.Fatalf("a worker stepped %d times for a %d-round search", stepped, stats.Iterations)
			}
		})
	}
}

// finalizeAfterFailover runs the search twice over two hosts carrying both
// shards, the first of which cuts every stream before its round struck+1:
// the rotation lands one of the two searches on it, which fails over both
// shards with struck rounds consumed.
func finalizeAfterFailover(t *testing.T, set *snap.ShardSetSnapshot, manifestPath string,
	spec core.SearchSpec, want string, iters, struck int) {
	t.Helper()
	if iters <= struck {
		t.Fatalf("fixture stops after %d rounds, before round %d", iters, struck+1)
	}
	urls, workers, _ := loggedHosts(t, manifestPath, [][]int{{0, 1}, {0, 1}})
	cutStreamsAt(workers[0], uint32(struck)+1)
	client := &http.Client{Timeout: 10 * time.Second, Transport: newTransport(len(urls))}
	leakCheck(t, workers)(client)
	c, err := NewCoordinator(CoordinatorConfig{WorkerURLs: urls, ShardCount: 2, SetID: set.Set.Layout.SetID,
		Client: client, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sel, stats, err := c.Search(spec, core.CoordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := metaTranscript(sel, stats); got != want {
			t.Fatalf("search %d: answer diverged\nwant:\n%s\ngot:\n%s", i, want, got)
		}
	}
	settle(t, workers)
	if f := c.failovers.Load(); f != 2 {
		t.Fatalf("%d failovers, want both shards of the one search that landed on the dying host", f)
	}
	// The struck session read and consumed `struck` rounds; the clean
	// search's session and the two replacement sessions each read the
	// search's rounds and not one more.
	d := countExchanges(c)
	if d.wasted != 0 || d.fetched != float64(struck+3*iters) {
		t.Fatalf("%d-round search struck at round %d: sessions read %v rounds, %d unconsumed — a replacement did not sit at the consumed round",
			iters, struck+1, d.fetched, d.wasted)
	}
	if dead, alive := workers[0].iterSteps.Load(), workers[1].iterSteps.Load(); dead != uint64(struck) || alive != uint64(3*iters) {
		t.Fatalf("the dying host stepped %d times (want %d), the surviving one %d (want 3×%d)", dead, struck, alive, iters)
	}
}

// TestBeginSetFailureLeavesNoSession: a beginset whose request is gone
// before its stream starts — here already cancelled — answers an error and
// releases the session it had installed: the coordinator never learned it
// was open and would never End it.
func TestBeginSetFailureLeavesNoSession(t *testing.T) {
	_, set, workers, servers := smallTopology(t)
	spec := deepQuery(t, set, servers[0], 2)
	w := workers[0]
	settle(t, workers[:1])
	steps := w.iterSteps.Load()

	frame := appendRecord(nil, encodeBeginSetRequest(beginSetRequest{searchID: 4242, shards: []int{0}, spec: spec, rounds: maxWorkerBatch}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, pathBeginSet, bytes.NewReader(frame)).WithContext(ctx)
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		t.Fatal("beginset for a cancelled request answered 200")
	}
	w.mu.Lock()
	open := len(w.sessions)
	w.mu.Unlock()
	if open != 0 {
		t.Fatalf("failed beginset left %d sessions behind", open)
	}
	if got := w.iterSteps.Load() - steps; got != 0 {
		t.Fatalf("worker stepped %d rounds for a cancelled request", got)
	}
}

// gateRounds gates w's stream loop: before stepping each round it reports
// the round on arrive and parks until the test sends on release, or — with
// honourCancel — until the stream's request is gone. quit frees every
// parked stream for good once the test is over.
func gateRounds(w *Worker, honourCancel bool) (arrive chan uint32, release, quit chan struct{}) {
	arrive, release, quit = make(chan uint32), make(chan struct{}), make(chan struct{})
	setRoundHook(w, func(ctx context.Context, round uint32) bool {
		var gone <-chan struct{}
		if honourCancel {
			gone = ctx.Done()
		}
		select {
		case arrive <- round:
			select {
			case <-release:
			case <-gone:
			case <-quit:
			}
		case <-gone:
		case <-quit:
		}
		return true
	})
	return arrive, release, quit
}

// TestCancelStopsWorkerStepping: a worker mid-stream whose coordinator
// cancelled (client disconnect) stops stepping at the next round boundary
// instead of running the stream out for nobody.
func TestCancelStopsWorkerStepping(t *testing.T) {
	manifestPath, set, _, servers := smallTopology(t)
	q := deepChaosQueries(t, chaosQueries(t, set))[0]

	// Shard 1's worker, its stream loop gated round by round.
	w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shard: 1, Mode: snap.LoadMmap})
	if err := w.Load(); err != nil {
		t.Fatal(err)
	}
	arrive, release, quit := gateRounds(w, false)
	reqCtx := make(chan context.Context, 1)
	inner := w.Handler()
	gated := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == pathBeginSet {
			reqCtx <- req.Context()
		}
		inner.ServeHTTP(rw, req)
	}))
	t.Cleanup(gated.Close)
	t.Cleanup(func() { close(quit) }) // runs before gated.Close
	coord := newCoordinator(t, set.Set.Layout, []string{servers[0].URL, gated.URL})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.Search(q.spec, core.CoordOptions{Ctx: ctx})
		done <- err
	}()
	wait := func(what string) {
		t.Helper()
		select {
		case <-arrive:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	// The beginset's stream parks before its first round. Let two rounds run.
	wait("the beginset stream")
	base := w.iterSteps.Load()
	for i := 0; i < 2; i++ {
		release <- struct{}{}
		wait("the next round boundary")
	}
	if got := w.iterSteps.Load() - base; got != 2 {
		t.Fatalf("worker stepped %d rounds across 2 releases", got)
	}
	// Cancel the search while the worker sits at a round boundary with most
	// of its stream still to run; once the disconnect reaches the worker's
	// request context, let it look.
	cancel()
	select {
	case <-(<-reqCtx).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the worker to see the disconnect")
	}
	release <- struct{}{}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled search returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled search did not return")
	}
	ctxDrain, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	if err := w.Drain(ctxDrain); err != nil {
		t.Fatal(err)
	}
	if got := w.iterSteps.Load() - base; got != 2 {
		t.Fatalf("worker stepped %d rounds of its stream after the cancel, want it to stop at the boundary (2)", got)
	}
}

// TestStreamAnswersAtStopRound is what a batch could not do: the worker's
// round s+1 never runs until its request is gone, and the coordinator
// still answers a query that stops at round s — byte-identically — off
// the rounds already streamed. Hanging up cuts the gated stream, its
// handler returns without stepping round s+1, the /end that follows
// leaves the worker with no session, and the search dialed at most the one
// connection it hung up on.
func TestStreamAnswersAtStopRound(t *testing.T) {
	in, ix := buildInstance(t, smallSpec())
	manifestPath := writeSet(t, in, ix, 2)
	set, err := snap.OpenShardSet(manifestPath, snap.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	var q chaosQuery
	for _, c := range deepChaosQueries(t, chaosQueries(t, set)) {
		if strings.Contains(c.want, "reason="+string(core.StopThreshold)) {
			q = c
		}
	}
	if q.iters == 0 {
		t.Fatal("no query of the battery stops by threshold")
	}

	// One host carrying both shards: one stream carries the whole search.
	w := NewWorker(WorkerConfig{ManifestPath: manifestPath, Shards: []int{0, 1}, Mode: snap.LoadMmap, ProxCacheBytes: -1})
	if err := w.Load(); err != nil {
		t.Fatal(err)
	}
	gated := make(chan struct{}, 1)
	setRoundHook(w, func(ctx context.Context, round uint32) bool {
		if round == uint32(q.iters)+1 {
			gated <- struct{}{}
			<-ctx.Done()
		}
		return true
	})
	streamDone := make(chan struct{}, 1)
	inner := w.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		inner.ServeHTTP(rw, req)
		if req.URL.Path == pathBeginSet {
			streamDone <- struct{}{}
		}
	}))
	t.Cleanup(srv.Close)
	var dials atomic.Int64
	client := &http.Client{Timeout: 10 * time.Second, Transport: dialCounting(newTransport(1), &dials)}
	leakCheck(t, []*Worker{w})(client)
	coord, err := NewCoordinator(CoordinatorConfig{WorkerURLs: []string{srv.URL}, ShardCount: 2,
		SetID: set.Set.Layout.SetID, Client: client, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}

	probed := dials.Load()
	done := make(chan string, 1)
	go func() {
		sel, stats, err := coord.Search(q.spec, core.CoordOptions{})
		if err != nil {
			done <- err.Error()
			return
		}
		done <- metaTranscript(sel, stats)
	}()
	select {
	case got := <-done:
		if got != q.want {
			t.Fatalf("answer with round %d withheld diverged\nwant:\n%s\ngot:\n%s", q.iters+1, q.want, got)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("search stopping at round %d waited on round %d", q.iters, q.iters+1)
	}
	// The worker calls the hook right after flushing round s, so it gets
	// there whether or not the answer arrived first.
	select {
	case <-gated:
	case <-time.After(10 * time.Second):
		t.Fatalf("the stream never reached round %d", q.iters+1)
	}
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the hung-up stream's handler never returned")
	}
	settle(t, []*Worker{w})
	if got := w.iterSteps.Load(); got != uint64(q.iters) {
		t.Fatalf("worker stepped %d rounds for a search that stopped at %d", got, q.iters)
	}
	if got := dials.Load() - probed; got > 1 {
		t.Fatalf("one search dialed %d connections to its one host, want at most the one it hung up on", got)
	}
}
