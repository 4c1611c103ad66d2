#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload late-fork --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# The Go build cache and every file a run writes stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
