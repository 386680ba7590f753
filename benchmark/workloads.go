package main

import "fmt"

type topoKind int

const (
	kindSingle  topoKind = iota // one s3serve over one snapshot
	kindSharded                 // one s3serve over a 4-shard set
	kindDist                    // coordinator + 2 workers × 2 shards, each worker behind a latency proxy
)

// probe selects which in-process layer probes a workload's traced run
// executes: the ones whose layers its topology puts on the request path.
type probe uint

const (
	probeEngine probe = 1 << iota // index / score / sparse / core on one engine, cold
	probeWarm                     // proxcache get/put and the warm search path
	probeShards                   // core.Coordinate over per-shard executors + topks merge
	probeServer                   // server handler self time
	probeDist                     // in-process dshard coordinator and workers behind proxies
)

// workload is one traffic mix against one topology. Everything that
// distinguishes the workloads is in this table; BENCHMARK.json and the
// README say why each one exists.
type workload struct {
	name string
	kind topoKind
	// resultCache and proxMB are the cache settings of the process clients
	// talk to (and of the in-process server probe): the default result
	// cache or none, and the checkpoint-cache budget in MiB (0 = off).
	resultCache bool
	proxMB      int
	// sessions selects the repeat-seeker session mix over single requests.
	sessions bool
	// clients is the number of closed-loop search connections (never more
	// than the box's 2 cores).
	clients int
	// reloads adds one admin client that POSTs /reload in a loop.
	reloads bool
	// ops is the frozen length of the timed list in requests (whole
	// sessions in the session mixes): every run replays exactly this many,
	// so that its percentiles and counters cover the same multiset of
	// queries whatever the speed of the build or the box. Sized on the
	// seed commit to take about 0.6 × run_seconds, which leaves --seconds,
	// the safety cap, two thirds of headroom.
	ops int
	// warmup is the number of untimed requests played before the window.
	warmup int
	probes probe
	// traceN is how many list entries the traced in-process run replays.
	traceN int
}

// proxcacheMB is the checkpoint-cache budget of the caching workloads. A
// checkpoint is ≈ 3.2 MiB at scale 1 (proxcache.mb_per_entry), so 16 MiB
// holds 4 or 5 of them: the two live sessions fit and the 32-session
// revisit window does not, which is what makes eviction policy and
// checkpoint size show up as hit ratio.
const proxcacheMB = 16

var workloads = []*workload{
	{
		name:    "single-cold",
		kind:    kindSingle,
		clients: 2, ops: 2500, warmup: 50,
		probes: probeEngine | probeServer, traceN: 200,
	},
	{
		name:        "single-repeat",
		kind:        kindSingle,
		resultCache: true, proxMB: proxcacheMB,
		sessions: true,
		clients:  2, ops: 10000, warmup: 50,
		probes: probeEngine | probeWarm | probeServer, traceN: 200,
	},
	{
		name:    "dist-rtt",
		kind:    kindDist,
		clients: 2, ops: 320, warmup: 20,
		probes: probeShards | probeDist, traceN: 60,
	},
	{
		name:        "reload-churn",
		kind:        kindSharded,
		resultCache: true, proxMB: proxcacheMB,
		sessions: true, reloads: true,
		clients: 1, ops: 5000, warmup: 50,
		probes: probeShards | probeWarm | probeServer, traceN: 100,
	},
}

// serverArgs are the cache flags of the process clients talk to.
func (w *workload) serverArgs() []string {
	args := []string{"-proxcache-mb", fmt.Sprint(w.proxMB)}
	if !w.resultCache {
		args = append(args, "-cache", "-1")
	}
	return args
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
