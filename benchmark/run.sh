#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source into
# benchmark/out/build/ and runs it from the checkout root. The harness
# itself builds s3gen and s3serve. Nothing outside the checkout is written:
# the go build cache and temp dir live under benchmark/out/build/ too.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/benchmark/out/build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
(cd "$root/benchmark" && go build -o "$build/bin/s3benchmark" .)
cd "$root"
exec "$build/bin/s3benchmark" "$@"
