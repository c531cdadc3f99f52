GO ?= go

.PHONY: build test race vet fmtcheck lint lint-baseline bench check profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the full suite; the parallel campaign engine, sweep
# fan-out, and cross-validation pool are exercised under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmtcheck fails if any tracked Go file is not gofmt-formatted.
fmtcheck:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# lint runs the libra-lint analyzer suite (determinism, noalloc, clocksep,
# dbunits, configmut, floatreduce, deadexport — see DESIGN.md "Static
# analysis & enforced invariants"). Reviewed findings recorded in
# lint.baseline are dropped; regenerate it with `make lint-baseline` only
# after review.
lint:
	$(GO) run ./cmd/libra-lint -baseline lint.baseline ./...

# lint-baseline snapshots the current findings into lint.baseline for review.
lint-baseline:
	$(GO) run ./cmd/libra-lint -write-baseline lint.baseline ./...

# bench runs the repository's benchmark (BENCHMARK.json, perfbench/README.md)
# on each of its workloads. A lint-dirty tree refuses to benchmark: numbers
# measured off a tree that breaks the determinism contracts are not
# reproducible evidence.
bench: lint
	for w in reproduce multiap decide decide_heavy; do \
		bash perfbench/run.sh --workload $$w || exit 1; \
	done

# check is the pre-merge gate: formatting, static analysis (vet +
# libra-lint) and the race-enabled suite.
check: fmtcheck vet lint race

# profile captures CPU and heap profiles of the Table 1 benchmark (the
# campaign engine's hot path) and prints the top consumers of each.
profile:
	$(GO) test -run '^$$' -bench 'Table1' -benchtime 1x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) tool pprof -top -nodecount 15 cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space mem.prof
