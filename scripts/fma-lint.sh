#!/bin/sh
# fma-lint: no floating-point expression of the module may compile to a
# fused multiply-add. The Go spec lets a compiler fuse x*y + z into one
# rounding; gc never does on amd64, but does on arm64, ppc64le, riscv64
# and s390x, where a fused product would make generated data, proximity
# sums and score bounds — and so the pinned digests — differ from an amd64
# build's. An explicit conversion, float64(x*y), rounds the product first
# (see internal/score's package doc). This cross-compiles the module for
# each of those architectures with -gcflags=-S and fails on any fused
# instruction whose source line is not allowed below.
set -eu
cd "$(dirname "$0")/.."

# allow lists the source lines that may fuse, one "path:line reason" per
# line, the path as -trimpath prints it (s3/internal/...). An entry needs
# its reason: for example, a bound that stays sound whichever way it
# rounds. None is needed today.
allow=''

if printf '%s\n' "$allow" | awk 'NF == 1 { bad = 1 } END { exit !bad }'; then
	echo "fma-lint: an allowed line has no reason" >&2
	exit 1
fi
asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
status=0
for arch in arm64 ppc64le riscv64 s390x; do
	if ! GOARCH=$arch go build -trimpath -gcflags=-S ./... >"$asm" 2>&1; then
		GOARCH=$arch go build ./... >&2 || true
		echo "fma-lint: the module does not build for $arch" >&2
		exit 1
	fi
	sites=$(grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' "$asm" |
		sed -n 's/.*(\([^()]*\.go:[0-9]*\)).*/\1/p' | sort -u)
	for site in $sites; do
		if ! printf '%s\n' "$allow" | awk -v s="$site" '$1 == s { ok = 1 } END { exit !ok }'; then
			echo "fma-lint: $arch fuses a multiply-add at $site" >&2
			status=1
		fi
	done
done
if [ "$status" -eq 0 ]; then
	echo "fma-lint: no fused multiply-add on arm64, ppc64le, riscv64 or s390x"
fi
exit "$status"
