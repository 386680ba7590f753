# Developer entry points. The repository is plain `go build ./...` /
# `go test ./...`; the targets here add the CI smokes. Performance is
# measured by benchmark/ (see benchmark/README.md), not from here.

.PHONY: build test race bench-e2e-smoke fuzz-smoke metrics-lint fma-lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench-e2e-smoke builds, vets and unit-tests the end-to-end benchmark
# harness (its own module, invisible to ./... at the root), then boots all
# four of its topologies at smoke scale and byte-checks their answers — so
# an API deletion that breaks the harness fails here, not in a benchmark run.
bench-e2e-smoke:
	cd benchmark && go vet . && go test .
	sh benchmark/run.sh -smoke

# fuzz-smoke runs every fuzz target of the packages that decode outside
# input — the distributed tier's wire (internal/dshard), the snapshot
# files (internal/snap), the connection index (internal/index), which
# a coordinator's fetched postings enter through index.Merge, and the
# text analyzer (internal/text), which every query keyword goes through,
# and the document path (internal/graph: an XML or JSON document parsed,
# added and built) — for FUZZTIME each (go test -fuzz takes one package
# and one target per invocation). Minimisation is capped: left at its 60 s default,
# shrinking one multi-kB snapshot input that found new coverage outlasts
# the whole smoke.
FUZZTIME ?= 5s
fuzz-smoke:
	for p in ./internal/dshard ./internal/snap ./internal/index ./internal/text ./internal/graph; do \
		for f in $$(go test $$p -list '^Fuzz' | grep '^Fuzz'); do \
			go test $$p -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s || exit 1; \
		done; \
	done

# metrics-lint fails if any registered /metrics name is missing from the
# README's Observability catalogue, or a catalogue row names a series
# nothing registers.
metrics-lint:
	sh scripts/metrics-lint.sh

# fma-lint cross-compiles the module for arm64, ppc64le, riscv64 and s390x
# and fails if the compiler fuses a multiply and an add into one rounding
# anywhere: amd64 never fuses, so a fused line computes other bits there
# than the digests pinned on amd64.
fma-lint:
	sh scripts/fma-lint.sh
