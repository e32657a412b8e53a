#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes — the Go build cache included — stays under
# .bench_build/ in the checkout, and the benchmark replaces this shell, so
# no process outlives the run. In a directory that holds only the benchmark
# (no repository around it) the build fails and nothing is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
BENCH_GIT_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT
go build -C "$here" -o "$build/stkde-benchmark" .
cd "$root"
exec "$build/stkde-benchmark" "$@"
