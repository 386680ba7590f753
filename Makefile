# Developer entry points. The repository is plain `go build ./...` /
# `go test ./...`; the targets here add the CI smokes. Performance is
# measured by benchmark/ (see benchmark/README.md), not from here.

.PHONY: build test race bench-e2e-smoke fuzz-smoke metrics-lint

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
