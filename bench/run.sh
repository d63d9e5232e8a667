#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it with the
# arguments given. Run from the repository root: bash bench/run.sh --workload ...
# Everything written — the build cache, the binary, scratch logs — stays
# under .bench_build in the directory it is run from.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath" GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$root/.bench_build/divbench" .)
exec "$root/.bench_build/divbench" "$@"
