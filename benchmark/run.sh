#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from the checkout it is
# run in and runs it. Everything the build writes stays inside the checkout
# (.bench_build/), and nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
