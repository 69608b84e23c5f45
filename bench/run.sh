#!/bin/sh
# Entry point named by BENCHMARK.json. It keeps everything the Go
# toolchain writes (build cache, temporary files) inside the checkout,
# builds the benchmark from source and runs it from the repository root.
root=$(cd "$(dirname "$0")/.." && pwd) || exit 1
cd "$root" || exit 1
mkdir -p .bench_build/gocache .bench_build/gotmp || exit 1
GOCACHE="$root/.bench_build/gocache"
GOTMPDIR="$root/.bench_build/gotmp"
GOFLAGS=-buildvcs=false
GOTOOLCHAIN=local
export GOCACHE GOTMPDIR GOFLAGS GOTOOLCHAIN
go build -o .bench_build/bench ./bench || exit 1
exec .bench_build/bench "$@"
