#!/bin/sh
# e2e-obs-smoke: boot the full distributed topology (2 host-grouped
# workers serving 2 shards each, one of them mapped, + a coordinator,
# plus a pprof debug listener) from the built binaries and assert the
# observability surface actually serves: /metrics parses on every
# process, the mapped worker maps exactly its shard files, POST
# /search?trace=1 returns one trace tree, /debug/traces retains it,
# /debug/pprof answers on the debug listener, and the coordinator's /stats
# reports its proximity cache off. Run by CI next to the
# benchmark smoke.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
W0=""
W1=""
C=""
cleanup() {
	for pid in $W0 $W1 $C; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/s3gen" ./cmd/s3gen
go build -o "$tmp/s3serve" ./cmd/s3serve
"$tmp/s3gen" -dataset twitter -scale 0.2 -snap "$tmp/i.set" -shards 4 >/dev/null

"$tmp/s3serve" -shardset "$tmp/i.set" -shards-of 0,2 -mmap -addr 127.0.0.1:18081 2>"$tmp/w0.log" &
W0=$!
"$tmp/s3serve" -shardset "$tmp/i.set" -shards-of 1,3 -addr 127.0.0.1:18082 2>"$tmp/w1.log" &
W1=$!
"$tmp/s3serve" -shardset "$tmp/i.set" -coordinator \
	-worker-urls http://127.0.0.1:18081,http://127.0.0.1:18082 \
	-addr 127.0.0.1:18080 -debug-addr 127.0.0.1:18079 -slowlog-ms 1 2>"$tmp/c.log" &
C=$!

wait_healthy() {
	i=0
	while ! curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "e2e-obs-smoke: port $1 never became healthy" >&2
			cat "$tmp"/*.log >&2
			exit 1
		fi
		sleep 0.1
	done
}
wait_healthy 18081
wait_healthy 18082
wait_healthy 18080

# The coordinator serves /healthz before its start-up probe has reached
# the workers, and the next probe comes seconds later: wait until its
# /stats lists both workers healthy, so the first search finds them.
i=0
while [ "$(curl -sf http://127.0.0.1:18080/stats | grep -o '"healthy":true' | wc -l)" -lt 2 ]; do
	i=$((i + 1))
	if [ "$i" -gt 150 ]; then
		echo "e2e-obs-smoke: coordinator never saw both workers healthy" >&2
		curl -s http://127.0.0.1:18080/stats >&2
		cat "$tmp"/*.log >&2
		exit 1
	fi
	sleep 0.1
done

# The coordinator runs without a proximity cache, and /stats says so.
curl -sf http://127.0.0.1:18080/stats | grep -o '"prox_cache":{[^}]*}' | grep -q '"enabled":false' ||
	{ echo "e2e-obs-smoke: coordinator /stats reports a proximity cache" >&2; exit 1; }

# The mapped worker holds its hosted shard files and nothing else: not
# the manifest.
want=$(($(stat -c %s "$tmp/i.set.shard-0") + $(stat -c %s "$tmp/i.set.shard-2")))
mapped=$(curl -sf http://127.0.0.1:18081/metrics | sed -n 's/^s3_worker_mapped_bytes \([0-9]*\)$/\1/p')
if [ "$mapped" != "$want" ]; then
	echo "e2e-obs-smoke: worker maps $mapped bytes, its shard files hold $want" >&2
	exit 1
fi

# A traced search: probe generated seekers/keywords until one answers.
resp=""
for u in 0 1 2 3 4 5 6 7 8 9 10 11 12; do
	for kw in '#h1' '#h2' '#h3' '#h5'; do
		body=$(printf '{"seeker":"tw:u%s","keywords":["%s"],"k":5}' "$u" "$kw")
		if out=$(curl -sf -X POST "http://127.0.0.1:18080/search?trace=1" -d "$body"); then
			resp=$out
			break 2
		fi
	done
done
if [ -z "$resp" ]; then
	echo "e2e-obs-smoke: no probe query succeeded" >&2
	exit 1
fi
trace_id=$(printf '%s' "$resp" | sed -n 's/.*"trace_id":"\([0-9a-f]\{16\}\)".*/\1/p')
if [ -z "$trace_id" ]; then
	echo "e2e-obs-smoke: traced search returned no trace_id: $resp" >&2
	exit 1
fi
# The coordinator runs the rounds itself: round spans holding its
# executor's step spans, after the fetch whose host spans hold the
# worker.postings spans built from each worker's reported time.
if ! printf '%s' "$resp" | grep -q '"name":"round"' ||
	! printf '%s' "$resp" | grep -q '"name":"step"'; then
	echo "e2e-obs-smoke: trace carries no executor round spans: $resp" >&2
	exit 1
fi
if printf '%s' "$resp" | grep -q '"name":"shard"\|"name":"exec\.'; then
	echo "e2e-obs-smoke: trace carries a shard or exec.* span: $resp" >&2
	exit 1
fi
if ! printf '%s' "$resp" | grep -q '"name":"worker.postings"'; then
	echo "e2e-obs-smoke: trace carries no worker-side spans: $resp" >&2
	exit 1
fi

# The trace is retained on the coordinator and on the workers' rings under
# the same id.
curl -sf http://127.0.0.1:18080/debug/traces | grep -q "$trace_id" ||
	{ echo "e2e-obs-smoke: coordinator ring lost trace $trace_id" >&2; exit 1; }
curl -sf http://127.0.0.1:18081/debug/traces | grep -q "$trace_id" ||
	{ echo "e2e-obs-smoke: worker ring never saw trace $trace_id" >&2; exit 1; }

# /metrics serves on all three processes with the mode-specific families:
# one postings fetch per host on the coordinator, its handling on each
# worker.
fetches=$(curl -sf http://127.0.0.1:18080/metrics | sed -n 's/^s3_coord_rpc_seconds_count{endpoint="postings"} \([0-9]*\)$/\1/p')
if [ -z "$fetches" ] || [ "$fetches" -eq 0 ]; then
	echo "e2e-obs-smoke: coordinator /metrics missing postings fetches (count=$fetches)" >&2
	exit 1
fi
curl -sf http://127.0.0.1:18080/metrics | grep -q '^s3_search_round_seconds_count' ||
	{ echo "e2e-obs-smoke: coordinator /metrics missing per-round latency" >&2; exit 1; }
for port in 18081 18082; do
	curl -sf http://127.0.0.1:$port/metrics | grep -q '^s3_shard_rpc_seconds_count{endpoint="postings"} [1-9]' ||
		{ echo "e2e-obs-smoke: worker $port /metrics missing postings histogram" >&2; exit 1; }
	curl -sf http://127.0.0.1:$port/metrics | grep -q '^s3_worker_searches_total' ||
		{ echo "e2e-obs-smoke: worker $port /metrics missing search counter" >&2; exit 1; }
done

# The slow-query log (threshold 1ms may or may not fire on loopback) must
# at least leave the counter scrapeable, and pprof answers on the debug
# listener.
curl -sf http://127.0.0.1:18080/metrics | grep -q '^s3_slowlog_emitted_total' ||
	{ echo "e2e-obs-smoke: slowlog counter missing" >&2; exit 1; }
curl -sf http://127.0.0.1:18079/debug/pprof/cmdline >/dev/null ||
	{ echo "e2e-obs-smoke: pprof debug listener not serving" >&2; exit 1; }

echo "e2e-obs-smoke: traced distributed search + 3x /metrics + mapped bytes + rings + pprof all serving"
