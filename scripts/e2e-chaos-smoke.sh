#!/bin/sh
# e2e-chaos-smoke: boot a replicated host-grouped topology (2 worker
# processes, each hosting BOTH shards of a 2-shard set) with one host
# reachable only through a faultnet TCP proxy, keep a search load
# running against the coordinator, then repeatedly sever the
# proxied host's live connections and finally SIGKILL the process
# mid-load. Every query must keep answering from the surviving host —
# every shard the dead host carried is re-fetched there — and the
# coordinator must record failovers (s3_coord_failover_total > 0). Run by
# CI next to the observability smoke.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
PIDS=""
cleanup() {
	rm -f "$tmp/run" 2>/dev/null || true
	# SIGKILL, not SIGTERM: workers drain gracefully on SIGTERM and would
	# hold their ports across back-to-back runs of this script.
	for pid in $PIDS; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/s3gen" ./cmd/s3gen
go build -o "$tmp/s3serve" ./cmd/s3serve
go build -o "$tmp/s3faultproxy" ./cmd/s3faultproxy
"$tmp/s3gen" -dataset twitter -scale 0.2 -snap "$tmp/i.set" -shards 2 >/dev/null

# Two host-grouped workers, replicas of each other: each hosts both
# shards off one substrate mapping. Host A (18181) is only reachable
# through the proxy, which adds a little per-write latency so that
# connection kills land while a search's fetches are in flight.
"$tmp/s3serve" -shardset "$tmp/i.set" -shards-of 0,1 -addr 127.0.0.1:18181 2>"$tmp/w0.log" &
W0=$!
PIDS="$PIDS $W0"
"$tmp/s3serve" -shardset "$tmp/i.set" -shards-of 0,1 -addr 127.0.0.1:18182 2>"$tmp/w1.log" &
PIDS="$PIDS $!"
"$tmp/s3faultproxy" -listen 127.0.0.1:18191 -target 127.0.0.1:18181 -latency-ms 2 2>"$tmp/p.log" &
PROXY=$!
PIDS="$PIDS $PROXY"
"$tmp/s3serve" -shardset "$tmp/i.set" -coordinator \
	-worker-urls http://127.0.0.1:18191,http://127.0.0.1:18182 \
	-addr 127.0.0.1:18180 2>"$tmp/c.log" &
PIDS="$PIDS $!"

wait_healthy() {
	i=0
	while ! curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "e2e-chaos-smoke: port $1 never became healthy" >&2
			cat "$tmp"/*.log >&2
			exit 1
		fi
		sleep 0.1
	done
}
wait_healthy 18182
wait_healthy 18191 # host A through the proxy
wait_healthy 18180

# Find a query that answers. The sweep retries for a while: worker
# membership lands on the coordinator's probe loop (5s interval), which
# may not have run yet.
body=""
attempt=0
while [ -z "$body" ]; do
	for u in 0 1 2 3 4 5 6 7 8 9 10 11 12; do
		for kw in '#h1' '#h2' '#h3' '#h5'; do
			probe=$(printf '{"seeker":"tw:u%s","keywords":["%s"],"k":5}' "$u" "$kw")
			if curl -sf -X POST http://127.0.0.1:18180/search -d "$probe" >/dev/null 2>&1; then
				body=$probe
				break 2
			fi
		done
	done
	if [ -z "$body" ]; then
		attempt=$((attempt + 1))
		if [ "$attempt" -gt 30 ]; then
			echo "e2e-chaos-smoke: no probe query succeeded" >&2
			cat "$tmp"/*.log >&2
			exit 1
		fi
		sleep 0.5
	fi
done

# Background load: run the query continuously, recording any failure.
touch "$tmp/run"
(
	n=0
	while [ -f "$tmp/run" ]; do
		if ! curl -sf -X POST http://127.0.0.1:18180/search -d "$body" >/dev/null 2>&1; then
			echo "query $n failed" >>"$tmp/loadfail"
		fi
		n=$((n + 1))
	done
	echo "$n" >"$tmp/count"
) &
LOAD=$!

# Chaos: sever the proxied worker's live connections a few times, then
# kill the process outright while the load keeps running.
i=0
while [ "$i" -lt 10 ]; do
	kill -USR1 "$PROXY" 2>/dev/null || true
	i=$((i + 1))
	sleep 0.2
done
kill -9 "$W0" 2>/dev/null || true
sleep 1

# The coordinator must have re-fetched shards from the surviving host.
failovers=0
i=0
while [ "$i" -lt 50 ]; do
	failovers=$(curl -sf http://127.0.0.1:18180/metrics |
		sed -n 's/^s3_coord_failover_total \([0-9][0-9]*\)$/\1/p')
	[ -n "$failovers" ] && [ "$failovers" -gt 0 ] && break
	i=$((i + 1))
	sleep 0.2
done

rm -f "$tmp/run"
wait "$LOAD" 2>/dev/null || true

if [ -s "$tmp/loadfail" ]; then
	echo "e2e-chaos-smoke: searches failed during chaos:" >&2
	cat "$tmp/loadfail" >&2
	cat "$tmp/c.log" >&2
	exit 1
fi
count=$(cat "$tmp/count" 2>/dev/null || echo 0)
if [ "$count" -lt 20 ]; then
	echo "e2e-chaos-smoke: load loop only ran $count queries" >&2
	exit 1
fi
if [ -z "$failovers" ] || [ "$failovers" -eq 0 ]; then
	echo "e2e-chaos-smoke: no failovers recorded (s3_coord_failover_total=$failovers)" >&2
	cat "$tmp/c.log" >&2
	exit 1
fi

# The fleet still answers every shard with host A gone for good.
curl -sf -X POST http://127.0.0.1:18180/search -d "$body" >/dev/null ||
	{ echo "e2e-chaos-smoke: search failed after host A was killed" >&2; exit 1; }

echo "e2e-chaos-smoke: $count queries survived connection kills + multi-shard host SIGKILL ($failovers failovers)"
