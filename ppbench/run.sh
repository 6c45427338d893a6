#!/usr/bin/env bash
# Builds ppclustd and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#	bash ppbench/run.sh --workload stream --seed 1 --seconds 25 --trace 0
#
# Every build output, cache and temporary file stays under .bench_build/
# in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/ppclustd" ./cmd/ppclustd
go -C ppbench build -o "$out/ppbench" .
exec "$out/ppbench" -daemon "$out/ppclustd" -work "$out" "$@"
