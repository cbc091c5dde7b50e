#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, temporary files, the binary,
# child CPU profiles and span traces.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export XDG_CACHE_HOME="$out/home"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$root/bench"
go build -o "$out/stashbench" .
cd "$root"
exec "$out/stashbench" "$@"
