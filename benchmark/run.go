package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports; its JSON form is the
// line the driver reads.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// firstFailure describes the first failed operation, for the log.
	firstFailure string
	// window is how long the timed replay of the list took.
	window time.Duration
}

// setupRepeats is how many times an untraced run sets the workload up
// (generate, boot, warm up); setup_s is the median of them and the last
// one serves the timed window.
const setupRepeats = 5

// smokeOps is the length of every timed list in the -smoke mode.
const smokeOps = 40

// warmSeedMix separates the warm-up list's random stream from the timed
// list's.
const warmSeedMix = 0x77a6

// runOpts are the knobs of one run.
type runOpts struct {
	seed int64
	// seconds caps the timed window; the list, not the clock, ends it.
	seconds int
	trace   bool
	// quick (the -smoke mode) sets up once and shortens the timed list and
	// the traced replay.
	quick bool
}

// runWorkload performs one complete run: reference instance, query lists,
// set-up (repeated), timed closed-loop replay of the list against the real
// processes, answer check, and — traced — the in-process layer probes.
func (e *env) runWorkload(ctx context.Context, w *workload, o runOpts) (*runResult, error) {
	refPath, err := e.generate(ctx, filepath.Join(e.workDir, "ref"), 1)
	if err != nil {
		return nil, err
	}
	ref, err := openReference(refPath)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	ops := w.ops
	if o.quick {
		ops = smokeOps
	}
	units, err := w.timedList(ref.in, ops, o.seed)
	if err != nil {
		return nil, err
	}
	warmPool, err := buildPool(ref.in, w.warmup, o.seed^warmSeedMix)
	if err != nil {
		return nil, err
	}
	warm := plainList(warmPool)

	repeats := setupRepeats
	if o.trace || o.quick {
		repeats = 1
	}
	var (
		top    *topology
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if top != nil {
			top.stop()
		}
		t0 := time.Now()
		tag := fmt.Sprintf("%s-setup%d", w.name, i)
		top, err = e.boot(ctx, w, filepath.Join(e.workDir, tag), tag)
		if err != nil {
			return nil, err
		}
		wr := runLoad(ctx, top.front.url, warm, w.clients, 0, false)
		for i := range wr.samples {
			if wr.samples[i].failed {
				top.stop()
				return nil, fmt.Errorf("%s: warm-up request failed (%s %v)", w.name, wr.samples[i].req.Seeker, wr.samples[i].req.Keywords)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer top.stop()

	before, err := scrapeAll(ctx, top)
	if err != nil {
		return nil, err
	}
	load := runLoad(ctx, top.front.url, units, w.clients, time.Duration(o.seconds)*time.Second, w.reloads)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rss float64
	for _, p := range top.procs() {
		mib, err := peakRSSMiB(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s died during the window: %v", p.name, err)
		}
		rss += mib
	}
	after, err := scrapeAll(ctx, top)
	if err != nil {
		return nil, err
	}
	if d := top.dead(); d != "" {
		return nil, fmt.Errorf("process died during the window: %s", d)
	}
	top.stop()

	res := &runResult{Metrics: map[string]metric{}, window: load.elapsed}
	var lat []float64
	for i := range load.samples {
		s := &load.samples[i]
		res.Attempted++
		if s.failed {
			res.Failed++
			if res.firstFailure == "" {
				res.firstFailure = fmt.Sprintf("search %s %v failed", s.req.Seeker, s.req.Keywords)
			}
			continue
		}
		lat = append(lat, s.ms)
	}
	// A list the cap cut short is not the list the metrics are defined
	// over: the requests it left count as failed, so the run is marked.
	res.Attempted += load.unplayed
	res.Failed += load.unplayed
	if load.unplayed > 0 && res.firstFailure == "" {
		res.firstFailure = fmt.Sprintf("the %d s cap cut the list short: %d requests unplayed", o.seconds, load.unplayed)
	}
	res.Attempted += len(load.reloadMS) + load.reloadsFailed
	res.Failed += load.reloadsFailed
	if load.reloadsFailed > 0 && res.firstFailure == "" {
		res.firstFailure = "POST /reload failed"
	}
	wrong, first := checkAnswers(ref, load.samples, o.seed)
	res.Failed += wrong
	if wrong > 0 && res.firstFailure == "" {
		res.firstFailure = first
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed", w.name)
	}
	res.Correct = res.Failed == 0

	if !o.trace {
		endToEnd(res.Metrics, setups, lat, len(lat)-wrong, load.elapsed, rss)
		return res, nil
	}
	topologyLayers(res.Metrics, &load, before, after)
	if err := e.probeLayers(ctx, res.Metrics, w, ref, units, o.quick); err != nil {
		return nil, err
	}
	printHistogram(os.Stderr, w.name, &load)
	return res, nil
}

// endToEnd fills the metrics a user of the system sees. qps counts
// correct 200-OK searches over the timed window; the percentiles are
// client-side, over every successful POST /search of the window.
func endToEnd(m map[string]metric, setups, lat []float64, correct int, elapsed time.Duration, rssMiB float64) {
	m["setup_s"] = metric{median(setups), "s"}
	m["qps"] = metric{ratio(float64(correct), elapsed.Seconds()), "1/s"}
	m["search_p50_ms"] = metric{percentile(lat, 50), "ms"}
	m["search_p95_ms"] = metric{percentile(lat, 95), "ms"}
	m["peak_rss_mb"] = metric{rssMiB, "MiB"}
}

// scrapes holds one /metrics page per role.
type scrapes struct {
	front   samples
	workers samples // summed over the worker processes
}

func scrapeAll(ctx context.Context, t *topology) (scrapes, error) {
	var s scrapes
	var err error
	if s.front, err = scrape(ctx, t.front); err != nil {
		return s, fmt.Errorf("scrape %s: %w", t.front.name, err)
	}
	s.workers = samples{}
	for _, wk := range t.workers {
		page, err := scrape(ctx, wk)
		if err != nil {
			return s, fmt.Errorf("scrape %s: %w", wk.name, err)
		}
		for k, v := range page {
			s.workers[k] += v
		}
	}
	return s, nil
}

// topologyLayers fills the per-layer metrics that come from the real
// processes: client-side classification of every reply by its
// cached/warm flags, and /metrics deltas over the window. A layer that is
// not part of the topology reports 0.
func topologyLayers(m map[string]metric, load *loadResult, before, after scrapes) {
	all, byOutcome := load.latencies()
	n := float64(len(all))
	m["server.lat_cached_p50_ms"] = metric{median(byOutcome[outCached]), "ms"}
	m["server.lat_warm_p50_ms"] = metric{median(byOutcome[outWarm]), "ms"}
	m["server.lat_cold_p50_ms"] = metric{median(byOutcome[outCold]), "ms"}
	m["server.cached_share"] = metric{ratio(float64(len(byOutcome[outCached])), n), "ratio"}
	m["server.warm_share"] = metric{ratio(float64(len(byOutcome[outWarm])), n), "ratio"}
	m["server.search_p99_ms"] = metric{percentile(all, 99), "ms"}

	d := after.front.delta(before.front)
	hits, misses := d.sum("s3_cache_hits_total"), d.sum("s3_cache_misses_total")
	m["server.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["server.coalesced"] = metric{d.sum("s3_http_coalesced_total"), "count"}
	m["server.shed"] = metric{d.sum("s3_http_shed_total"), "count"}
	m["server.reloads"] = metric{d.sum("s3_reloads_total"), "count"}
	m["server.reload_p50_ms"] = metric{median(load.reloadMS), "ms"}

	phits, pmisses := d.sum("s3_proxcache_hits_total"), d.sum("s3_proxcache_misses_total")
	entries := after.front.sum("s3_proxcache_entries")
	m["proxcache.hit_ratio"] = metric{ratio(phits, phits+pmisses), "ratio"}
	m["proxcache.entries"] = metric{entries, "count"}
	m["proxcache.mb_per_entry"] = metric{ratio(after.front.sum("s3_proxcache_bytes")/(1<<20), entries), "MiB"}

	m["core.rounds_per_search"] = metric{ratio(d.sum("s3_search_rounds_sum"), d.sum("s3_search_rounds_count")), "count"}

	searches := d.sum("s3_coord_searches_total")
	fetched := d.sum("s3_coord_round_batch_sum")
	wd := after.workers.delta(before.workers)
	m["dshard.rpcs_per_search"] = metric{ratio(d.sum("s3_coord_rpc_seconds_count"), searches), "count"}
	m["dshard.rounds_per_rpc"] = metric{ratio(fetched, d.sum("s3_coord_round_batch_count")), "count"}
	m["dshard.req_bytes_per_search"] = metric{ratio(d.sum("s3_coord_rpc_bytes_total", `direction="sent"`), searches), "B"}
	m["dshard.resp_bytes_per_search"] = metric{ratio(d.sum("s3_coord_rpc_bytes_total", `direction="recv"`), searches), "B"}
	m["dshard.spec_wasted_ratio"] = metric{ratio(d.sum("s3_coord_spec_wasted_total"), fetched), "ratio"}
	m["dshard.worker_steps_per_search"] = metric{ratio(wd.sum("s3_worker_iter_steps_total"), searches), "count"}
	m["dshard.hedges"] = metric{d.sum("s3_coord_hedge_issued_total"), "count"}
	m["dshard.failovers"] = metric{d.sum("s3_coord_failover_total"), "count"}
	m["dshard.retries"] = metric{d.sum("s3_coord_retries_total"), "count"}
}
