#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash bench/run.sh --workload exec-gemm --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's temporary files, config and telemetry,
# the binary and everything a run writes stay under .bench_build/ at the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/fouridx-bench" .
exec "$out/fouridx-bench" "$@"
