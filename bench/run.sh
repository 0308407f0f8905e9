#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags,
# e.g. `bash bench/run.sh --workload bldg-control --seed 1 --seconds 20 --trace 0`.
# The binary, the Go build cache and the go tool's own state all live under
# .bench_build/ in the checkout, so a run writes nothing outside it; the
# toolchain is the local one and module downloads are off. Go telemetry is
# switched off in that private config: otherwise the go command forks a
# detached telemetry process that can outlive the run.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
