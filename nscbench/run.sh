#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash nscbench/run.sh --workload jacobi-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, temporary build files,
# the binary and the traced run's spans all stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/nscbench" && go build -o "$out/nscbench" .) >&2
exec "$out/nscbench" -spans "$out/spans" "$@"
