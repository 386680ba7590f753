#!/bin/sh
# metrics-lint: every metric name registered anywhere in the serving code
# must be documented in README.md's Observability catalogue, and every
# series a catalogue row names (first cell of a "| `s3_..." table row) must
# be registered. Registered names are found by grepping for the "s3_..."
# string literals passed to the obs registry in non-test Go files.
set -eu
cd "$(dirname "$0")/.."

names=$(grep -rhoE '"s3_[a-z0-9_]+"' --include='*.go' --exclude='*_test.go' internal cmd ./*.go 2>/dev/null |
	tr -d '"' | sort -u)
if [ -z "$names" ]; then
	echo "metrics-lint: found no registered metric names — grep pattern broken?" >&2
	exit 1
fi

missing=0
for name in $names; do
	if ! grep -q "$name" README.md; then
		echo "metrics-lint: $name is registered but not documented in README.md" >&2
		missing=1
	fi
done
documented=$(sed -n 's/^| \(`s3_[^|]*\)|.*/\1/p' README.md | grep -oE 's3_[a-z0-9_]+' | sort -u)
for name in $documented; do
	if ! echo "$names" | grep -qx "$name"; then
		echo "metrics-lint: README.md documents $name but nothing registers it" >&2
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi
echo "metrics-lint: $(echo "$names" | wc -l) metric names registered, $(echo "$documented" | wc -l) documented, all matched"
