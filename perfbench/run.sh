#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it; every
# argument goes to the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and run reports stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export PERFBENCH_OUT="$build/perfbench"
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2
exec "$build/perfbench.bin" "$@"
