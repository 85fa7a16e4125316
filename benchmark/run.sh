#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout (build cache included, so nothing is written outside it) and
# runs it from the checkout's root with the caller's arguments.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/benchmark" .
BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
cd "$root"
exec "$build/benchmark" "$@"
