#!/usr/bin/env bash
# Builds secbench from the sources in this checkout and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh --workload check-allow --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry counters) and the binary itself stay under .bench_build.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/secbench" .
exec "$out/secbench" "$@"
