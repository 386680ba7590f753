# Developer entry points. The repository is plain `go build ./...` /
# `go test ./...`; the targets here only add the benchmark-to-JSON
# pipeline used to track performance across PRs.

# BENCHTIME=1x turns the bench target into the CI smoke run (compile and
# execute every benchmark once, no timing fidelity).
BENCHTIME ?= 200ms

# BENCH_TARGET is the committed benchmark snapshot this tree is expected
# to produce. bench refuses to write anywhere else unless
# BENCH_OUT_OVERRIDE=1 (scratch runs, the CI smoke), so a PR that bumps
# the benchmarks can't silently forget to commit the matching snapshot.
BENCH_TARGET := BENCH_10.json
BENCH_OUT ?= $(BENCH_TARGET)

.PHONY: build test race bench bench-e2e-smoke fuzz-smoke metrics-lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench runs the engine + serving benchmark suite and writes the results
# (name, ns/op, allocs/op and custom metric columns per benchmark) to
# $(BENCH_OUT) as JSON.
bench:
ifneq ($(BENCH_OUT),$(BENCH_TARGET))
ifneq ($(BENCH_OUT_OVERRIDE),1)
	$(error BENCH_OUT=$(BENCH_OUT) but this tree's snapshot is $(BENCH_TARGET); set BENCH_OUT_OVERRIDE=1 for a scratch run)
endif
endif
	go run ./cmd/benchjson -out $(BENCH_OUT) -benchtime $(BENCHTIME) ./...

# bench-e2e-smoke builds, vets and unit-tests the end-to-end benchmark
# harness (its own module, invisible to ./... at the root), then boots all
# four of its topologies at smoke scale and byte-checks their answers — so
# an API deletion that breaks the harness fails here, not in a benchmark run.
bench-e2e-smoke:
	cd benchmark && go vet . && go test .
	sh benchmark/run.sh -smoke

# fuzz-smoke runs every round-protocol fuzz target for FUZZTIME each (go
# test -fuzz takes one target per invocation).
FUZZTIME ?= 5s
fuzz-smoke:
	for f in $$(go test ./internal/dshard -list '^Fuzz' | grep '^Fuzz'); do \
		go test ./internal/dshard -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# metrics-lint fails if any registered /metrics name is missing from the
# README's Observability catalogue, or a catalogue row names a series
# nothing registers.
metrics-lint:
	sh scripts/metrics-lint.sh
