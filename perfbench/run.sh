#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload decide --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory (binary, Go build cache, spans, results). The build
# needs the repository around perfbench/: without it, it fails and the
# script exits non-zero before printing anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench-bin" .) >&2

# The commit, when the checkout is a git work tree; never look above it.
sha=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)
export PERFBENCH_GIT_SHA="${sha:-unknown}"

exec "$out/perfbench-bin" "$@"
