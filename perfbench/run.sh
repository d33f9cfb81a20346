#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one measurement.
# Arguments pass through to the binary, e.g.
#
#   bash perfbench/run.sh --workload steady-churn --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, Go's telemetry
# counters, binary, journals, span dumps) stays under .bench_build/ at the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
