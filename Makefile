GO ?= go

.PHONY: build test race vet lint lint-baseline bench check profile serve-bench shard-bench

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

# lint runs the libra-lint analyzer suite (determinism, noalloc, clocksep,
# dbunits, configmut, floatreduce — see DESIGN.md "Static analysis & enforced
# invariants"). Reviewed findings recorded in lint.baseline are dropped;
# regenerate it with `make lint-baseline` only after review.
lint:
	$(GO) run ./cmd/libra-lint -baseline lint.baseline ./...

# lint-baseline snapshots the current findings into lint.baseline for review.
lint-baseline:
	$(GO) run ./cmd/libra-lint -write-baseline lint.baseline ./...

# bench records a dated BENCH_<date>.json snapshot of the paper-reproduction
# benchmarks and diffs it against the previous snapshot (10% threshold),
# keeping each benchmark's fastest of 3 runs to reject scheduler noise. A
# lint-dirty tree refuses to snapshot: numbers recorded off a tree that
# breaks the determinism contracts are not reproducible evidence.
bench: lint
	$(GO) run ./cmd/libra-bench -bench 'Table1|Table2|CampaignColumnar|SweepFused|CrossValidation|ForestFit|PredictBatch|SectorSweep|ClassifierInference|PolicyEntry' -benchtime 1x -runs 3

# serve-bench records a dated BENCH_<date>_serve.json artifact of the
# decision service A/B (per-request vs coalesced inference, concurrency 64).
# The 2400x20 forest is sized so model compute dominates the L2 cache — the
# regime the coalescer exists for; see DESIGN.md §9.
serve-bench: lint
	$(GO) run ./cmd/libra-loadgen -c 64 -n 40000 -warmup 4000 \
		-trees 2400 -depth 20 \
		-json BENCH_$$(date +%F)_serve.json

# shard-bench records a dated BENCH_<date>_shard.json artifact of the
# fleet-scale decide path: a quantized 2400x20 forest behind a 2-shard
# consistent-hash router, driven over the pipelined binary wire protocol.
# The artifact embeds the git SHA, the fixed seed, the quantized/float64
# class-parity result, and the speedup over the batched-HTTP baseline.
# Like bench, a lint-dirty tree refuses to snapshot.
shard-bench: lint
	$(GO) run ./cmd/libra-loadgen -mode shard -c 32 -n 40000 -warmup 4000 \
		-trees 2400 -depth 20 -max-batch 512 \
		-shards 2 -pipeline 128 -runs 5 \
		-json BENCH_$$(date +%F)_shard.json

# check is the pre-merge gate: static analysis (vet + libra-lint) plus the
# race-enabled suite.
check: vet lint race

# profile captures CPU and heap profiles of the Table 1 benchmark (the
# campaign engine's hot path) and prints the top consumers of each.
profile:
	$(GO) test -run '^$$' -bench 'Table1' -benchtime 1x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) tool pprof -top -nodecount 15 cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space mem.prof
