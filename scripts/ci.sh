#!/bin/sh
# ci.sh — the repository's full verification gate.
#
# Tier-1 (ROADMAP.md) is `go build ./... && go test ./...`; this script
# adds vet, the stashlint static determinism/concurrency gate, an
# explicit build of every runnable (CLIs, stashd, each example), the
# documentation checks (docs/API.md examples replayed against a live
# server, markdown cross-references resolved), and a race-detector
# pass — the real guard for the parallel scenario scheduler and the
# stashd concurrency gate. Run from the repository root:
#
#   ./scripts/ci.sh
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> stashlint ./... (static determinism & concurrency analyzers)"
go run ./cmd/stashlint -list
go run ./cmd/stashlint -timing ./...

echo "==> stashlint -staleallows ./... (every //lint:allow must still suppress a finding)"
go run ./cmd/stashlint -staleallows ./...

echo "==> go build ./..."
go build ./...

echo "==> build all commands and examples"
for d in ./cmd/* ./examples/*; do
  [ -d "$d" ] || continue
  echo "    go build $d"
  go build -o /dev/null "$d"
done

echo "==> documentation checks (API examples + metrics reference + markdown links)"
go test ./internal/api -run 'TestAPIDocExamplesVerified|TestMetricsDocumented'
go test . -run 'TestDocs'

echo "==> documentation capture regenerator (verify mode, throwaway dir)"
STASHD_CAPTURE="$(mktemp -d)" go test ./internal/api -run 'TestCaptureDocExamples'

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

# Every request decoder and validator must never panic or hang on
# hostile input. `go test ./...` above replays each target's seeds;
# here each one also explores for a few seconds.
for target in \
  "FuzzJobCreate ./internal/api" \
  "FuzzTenantOf ./internal/api" \
  "FuzzParseTenantWeights ./cmd/stashd" \
  "FuzzResolve ./internal/dnn" \
  "FuzzByName ./internal/cloud"; do
  set -- $target
  echo "==> go test -fuzz $1 -fuzztime=5s $2"
  go test -run '^$' -fuzz "^$1\$" -fuzztime=5s "$2"
done

# stashbench (bench/, its own module) self-test: a tiny traced run of
# each workload under the race detector.
echo "==> stashbench vet + self-test (bench/)"
(cd bench && go vet ./... && go test -race .)

echo "==> stash -selfcheck (cross-layer invariant audit)"
go run ./cmd/stash -selfcheck

# Perf-trajectory checks: diff the two most recent BENCH_*.json
# snapshots when at least two exist.
#
# The micro benches (internal/sim, internal/simnet, internal/collective,
# internal/trace — the blame-attribution pass) are ENFORCED: their
# steady-state min-of-N is stable across runs on one machine
# (nanosecond-scale operations, many iterations per sample), so a >25%
# regression is a real change, not noise, and fails the gate.
#
# The suite benches (package stash: SuiteSerial/SuiteParallel and the
# experiment benches) stay ADVISORY: a suite sample is one -benchtime=1x
# shot of a multi-second figure simulation, so allocator, GC and host
# scheduling variance can move it tens of percent between snapshots taken
# on different machines or load conditions. Their deltas (and the derived
# parallel_speedup field) land in the CI log for eyeballing instead.
set -- $(ls BENCH_*.json 2>/dev/null | sort)
if [ "$#" -ge 2 ]; then
  shift $(($# - 2))
  echo "==> benchcmp $1 $2 (micro benches, enforcing)"
  go run ./cmd/benchcmp -threshold 25 -match '^stash/internal/(sim|simnet|collective|trace)\.' "$1" "$2"
  echo "==> benchcmp $1 $2 (suite benches, advisory)"
  go run ./cmd/benchcmp -threshold -1 -match '^stash\.' "$1" "$2" || echo "    benchcmp: advisory check failed (non-blocking)"
fi

echo "==> ci.sh: all checks passed"
