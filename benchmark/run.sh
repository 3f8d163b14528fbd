#!/usr/bin/env bash
# The driver's entry point (see BENCHMARK.json): build the benchmark from
# source and run it, writing nothing outside the checkout — the binary,
# Go's build cache and its temporary files all live in .bench_build/.
# By hand, `go run ./benchmark` does the same with the user's own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
