#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#   bash yvperf/run.sh --workload resolve_lists --seed 1 --seconds 15 --trace 0
# Build cache, binary and work files stay under .bench_build/yvperf.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/yvperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/yvperf" && go build -o "$out/yvperf" .)
exec "$out/yvperf" "$@"
