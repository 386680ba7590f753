// Command s3serve runs the long-lived S3 query server: it loads a frozen
// instance from a binary snapshot, a component-sharded shard set, or a
// spec rebuild, and serves S3k searches over an HTTP JSON API with result
// caching, concurrent-query coalescing, a bounded search worker pool and
// atomic hot reload (with cache re-warming).
//
// Usage:
//
//	s3gen -dataset twitter -out i1.spec -snap i1.snap
//	s3serve -snapshot i1.snap -addr :8080
//	curl -s localhost:8080/search -d '{"seeker":"tw:u17","keywords":["#h3"],"k":5}'
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/reload   # after regenerating i1.snap
//
// Sharded serving — generate a shard set and point -shardset at the
// manifest; the shards' postings are merged into one index at open, every
// query answers exactly as on the unsharded instance, and /stats reports
// each shard's load:
//
//	s3gen -dataset twitter -shards 4 -snap i1.set
//	s3serve -shardset i1.set -addr :8080
//
// Distributed serving — worker processes holding one or more shards' slices
// of the connection index each, plus a coordinator that runs every search
// over the substrate it maps with the manifest: it fetches the query
// keywords' postings from each worker host in one binary exchange and
// explores in process. A worker reads only the manifest's meta and layout
// and keeps nothing but its hosted shard files; answers are
// byte-identical to the single-process shard set. A worker hosting several
// shards (-shards-of) answers for all of them in one reply:
//
//	s3serve -shardset i1.set -shards-of 0,2 -mmap -addr :8081
//	s3serve -shardset i1.set -shards-of 1,3 -mmap -addr :8082
//	s3serve -shardset i1.set -coordinator \
//	        -worker-urls http://localhost:8081,http://localhost:8082 -addr :8080
//
// With -mmap the snapshot (or shard set) is memory-mapped and served
// through zero-copy views: cold start and /reload cost page faults plus
// checksum validation instead of a read of the whole file, and replicas
// of one snapshot on a host share physical pages. The old mapping is unmapped
// only after the last in-flight search on it finishes, so snapshots are
// replaced by writing a temp file and renaming it over the served path.
//
// Endpoints: POST /search (?trace=1 returns the span tree), GET
// /extension, GET /stats, GET /metrics (Prometheus text exposition), GET
// /debug/traces (recent traces), GET /healthz (readiness; 503 while
// loading or draining), GET /livez (liveness), POST /reload. Workers
// speak POST /shard/v1/postings (and serve GET /manifest) instead of
// /search but expose the same /metrics and /debug/traces. See
// internal/server and internal/dshard for the request and response
// bodies.
//
// Observability extras: -slowlog-ms logs a JSON line to stderr for every
// search slower than the threshold, and -debug-addr serves net/http/pprof
// on a second listener (all three modes) so profiling stays off the
// query port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"s3"
	"s3/internal/dshard"
	"s3/internal/obs"
	"s3/internal/server"
	"s3/internal/snap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("s3serve: ")
	var (
		snapPath   = flag.String("snapshot", "", "serve the instance from this binary snapshot (fast cold start)")
		setPath    = flag.String("shardset", "", "serve a sharded instance from this shard-set manifest (s3gen -shards)")
		specPath   = flag.String("spec", "", "rebuild the instance from this spec (gob) when -snapshot is not given")
		lang       = flag.String("lang", "raw", "text pipeline for -spec builds: english | french | raw")
		mmap       = flag.Bool("mmap", false, "memory-map -snapshot / -shardset files and serve zero-copy views (O(page-fault) cold start and reload; a file of another format version fails the load — regenerate it with s3gen)")
		shardsOf   = flag.String("shards-of", "", "worker mode: serve these comma-separated shards of -shardset to a coordinator from one process (one postings reply per search for all of them; e.g. -shards-of 0,2, or -shards-of 1 for one shard)")
		verifyMode = flag.String("verify", "lazy", "worker mode: snapshot checksum verification: lazy (CRC pass overlaps serving; a fault flips /healthz to corrupt) | eager (verify fully before readiness)")
		coord      = flag.Bool("coordinator", false, "coordinator mode: scatter/gather searches for -shardset across -worker-urls")
		workerURL  = flag.String("worker-urls", "", "comma-separated worker base URLs for -coordinator (e.g. http://h1:8081,http://h2:8082)")
		addr       = flag.String("addr", ":8080", "listen address")
		cacheSize  = flag.Int("cache", server.DefaultCacheSize, "result cache capacity in entries (negative disables)")
		proxMB     = flag.Int("proxcache-mb", int(server.DefaultProxCacheBytes>>20), "seeker-proximity checkpoint cache budget in MiB (<= 0 disables; ignored in worker and coordinator mode)")
		workers    = flag.Int("workers", 0, "max concurrently executing searches (0 = GOMAXPROCS)")
		maxQueue   = flag.Int("max-queue", 0, "max searches waiting for a worker slot before arrivals are shed with 429 (0 = 8x workers, negative = unbounded)")
		queueWait  = flag.Int("queue-wait-ms", 0, "max milliseconds a queued search waits for a worker slot before 429 (0 = 2000, negative = uncapped)")
		slowMS     = flag.Int("slowlog-ms", 0, "log a JSON line to stderr for every search slower than this many milliseconds (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this extra address (empty disables)")
	)
	flag.Parse()

	startDebugListener(*debugAddr)
	mode := s3.LoadCopy
	if *mmap {
		mode = s3.LoadMmap
	}
	shards, err := parseShardList(*shardsOf)
	if err != nil {
		log.Fatal(err)
	}
	if len(shards) > 0 {
		if *setPath == "" || *snapPath != "" || *specPath != "" || *coord {
			log.Fatal("-shards-of requires -shardset (and excludes -snapshot, -spec and -coordinator)")
		}
		verify, err := parseVerify(*verifyMode)
		if err != nil {
			log.Fatal(err)
		}
		runWorker(*setPath, shards, mode, *addr, verify)
		return
	}

	loader, err := makeLoader(*snapPath, *setPath, *specPath, *lang, mode, *coord, *workerURL)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	inst, err := loader()
	if err != nil {
		log.Fatal(err)
	}
	loadMS := time.Since(start)
	how := "copied"
	if mb := inst.MappedBytes(); mb > 0 {
		how = fmt.Sprintf("mapped %d bytes", mb)
	}
	log.Printf("instance ready in %v, %s (%d users, %d documents, %d components)",
		loadMS.Round(time.Millisecond), how,
		inst.Stats().Users, inst.Stats().Documents, inst.Stats().Components)
	logShardLayout(inst)
	if di, ok := inst.(*s3.DistributedInstance); ok {
		if err := di.Probe(context.Background()); err != nil {
			log.Printf("warning: worker fleet incomplete: %v (searches fail until every shard has a live worker)", err)
		} else {
			log.Printf("coordinator: every shard covered by a healthy worker")
		}
	}

	proxBytes := int64(*proxMB) << 20
	if *proxMB <= 0 {
		proxBytes = -1
	}
	srv, err := server.New(server.Config{
		Instance:       inst,
		Loader:         loader,
		CacheSize:      *cacheSize,
		ProxCacheBytes: proxBytes,
		Workers:        *workers,
		MaxQueue:       *maxQueue,
		MaxQueueWait:   time.Duration(*queueWait) * time.Millisecond,
		LoadMS:         loadMS.Milliseconds(),
		SlowLog:        obs.NewSlowLog(os.Stderr, time.Duration(*slowMS)*time.Millisecond),
	})
	if err != nil {
		log.Fatal(err)
	}

	serveHTTP(*addr, srv.Handler(), func() { srv.SetDraining(true) })
}

// startDebugListener serves net/http/pprof (registered on the default
// mux by its blank import) on its own address, keeping profiling off the
// query port in every mode.
func startDebugListener(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("debug listener (pprof) on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("debug listener: %v", err)
		}
	}()
}

// serveHTTP runs the listener until SIGINT/SIGTERM, then drains: flip
// readiness off (health-checked routers stop sending) and shut down
// gracefully.
func serveHTTP(addr string, handler http.Handler, drain func()) {
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Print("draining")
		if drain != nil {
			drain()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	log.Printf("serving on %s", addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to finish draining in-flight requests before exiting.
	<-drained
}

// runWorker serves one or more shards of a set to coordinators from a
// single process. The HTTP listener comes up immediately with
// /healthz reporting "loading"; the shards load in the background and
// readiness flips to "serving" when they are queryable — exactly what a
// coordinator's membership probe expects.
func runWorker(setPath string, shards []int, mode s3.LoadMode, addr string, verify snap.VerifyMode) {
	w := dshard.NewWorker(dshard.WorkerConfig{
		ManifestPath: setPath,
		Shards:       shards,
		Mode:         snap.LoadMode(mode),
		Verify:       verify,
	})
	go func() {
		start := time.Now()
		if err := w.Load(); err != nil {
			log.Fatalf("loading shards %v of %s: %v", shards, setPath, err)
		}
		st := w.Stats()
		for _, row := range st.Shards {
			log.Printf("shard %d of %d ready in %v: %d documents, %d components, mapped %d bytes",
				row.Shard, st.ShardCount, time.Since(start).Round(time.Millisecond),
				row.Documents, row.Components, st.MappedBytes)
		}
	}()
	// On SIGTERM, flip readiness off so coordinators bench this replica;
	// the HTTP shutdown then answers the requests already in flight.
	serveHTTP(addr, w.Handler(), w.SetDraining)
}

// logShardLayout prints the per-shard layout when serving a shard set.
func logShardLayout(inst s3.Queryable) {
	type sharded interface {
		NumShards() int
		Shards() []s3.ShardStat
	}
	si, ok := inst.(sharded)
	if !ok || si.NumShards() < 2 {
		return
	}
	log.Printf("sharded: %d shards", si.NumShards())
	for i, sh := range si.Shards() {
		log.Printf("  shard %d: %d documents, %d components, %d tags", i, sh.Documents, sh.Components, sh.Tags)
	}
}

// makeLoader builds the instance-loading closure used both for the
// initial load and for POST /reload. Snapshot and shard-set loading need
// no language: both embed the text-pipeline configuration.
func makeLoader(snapPath, setPath, specPath, lang string, mode s3.LoadMode, coord bool, workerURLs string) (func() (s3.Queryable, error), error) {
	sources := 0
	for _, p := range []string{snapPath, setPath, specPath} {
		if p != "" {
			sources++
		}
	}
	if sources > 1 {
		return nil, fmt.Errorf("-snapshot, -shardset and -spec are mutually exclusive")
	}
	if coord {
		if setPath == "" {
			return nil, fmt.Errorf("-coordinator requires -shardset (the manifest)")
		}
		var urls []string
		for _, u := range strings.Split(workerURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("-coordinator requires -worker-urls (comma-separated worker URLs)")
		}
		return func() (s3.Queryable, error) {
			return s3.OpenCoordinator(setPath, urls, mode)
		}, nil
	}
	switch {
	case snapPath != "":
		return func() (s3.Queryable, error) {
			return s3.OpenSnapshot(snapPath, mode)
		}, nil
	case setPath != "":
		return func() (s3.Queryable, error) {
			return s3.OpenShardSet(setPath, mode)
		}, nil
	case specPath != "":
		l, err := parseLang(lang)
		if err != nil {
			return nil, err
		}
		return func() (s3.Queryable, error) {
			f, err := os.Open(specPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return s3.BuildFromSpec(f, l)
		}, nil
	default:
		return nil, fmt.Errorf("one of -snapshot, -shardset or -spec is required")
	}
}

// parseShardList parses the -shards-of value: comma-separated,
// non-negative, duplicate-free shard ordinals.
func parseShardList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var shards []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-shards-of: %q is not a shard ordinal", part)
		}
		if seen[n] {
			return nil, fmt.Errorf("-shards-of: shard %d listed twice", n)
		}
		seen[n] = true
		shards = append(shards, n)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("-shards-of: no shards in %q", s)
	}
	return shards, nil
}

func parseVerify(s string) (snap.VerifyMode, error) {
	switch s {
	case "lazy":
		return snap.VerifyLazy, nil
	case "eager":
		return snap.VerifyEager, nil
	default:
		return 0, fmt.Errorf("unknown -verify %q (want lazy or eager)", s)
	}
}

func parseLang(s string) (s3.Lang, error) {
	switch s {
	case "english":
		return s3.English, nil
	case "french":
		return s3.French, nil
	case "raw":
		return s3.Raw, nil
	default:
		return 0, fmt.Errorf("unknown -lang %q (want english, french or raw)", s)
	}
}
