#!/bin/sh
# bench.sh — the repository's perf-trajectory snapshot.
#
# Runs the suite-level benchmarks (root Suite*/experiment benches, the
# collective ring all-reduce sweep over the suite's fabrics —
# BenchmarkRingAllReduce/{pcie16,nvlink8,vpc2x4} — the cost of building
# one scenario's world, BenchmarkWorldBuild, and the
# simulation-engine/simnet microbenches)
# with a fixed -benchtime and -count, then converts `go test -bench`
# output into a machine-readable BENCH_<date>.json so successive commits
# accumulate comparable data points.
#
# Each benchmark's first sample is flagged "warmup": true — it absorbs
# cold caches, first-touch page faults and JIT-ish one-time costs (the
# seed data shows first samples up to 20x the steady state), so
# consumers (cmd/benchcmp) compare steady-state samples only. -benchmem
# is always on; bytes_per_op / allocs_per_op land in the JSON.
#
# The snapshot also records where the CPU goes: one short traced
# stashbench suite-cold pass (bench/run.sh --workload suite-cold --seed 1
# --trace 1; see bench/README.md) runs after the go benchmarks, and its
# per-layer cpu_share.* metrics are copied into "layer_share", keyed by
# layer. cmd/benchcmp diffs them as advisory output.
#
# Usage, from the repository root:
#
#   ./scripts/bench.sh            # writes BENCH_YYYYMMDD.json
#   OUT=custom.json ./scripts/bench.sh
#
# If the default output file already exists (a second run on the same
# day), a _r2/_r3/... revision suffix is appended instead of
# overwriting, so earlier points in the trajectory are never lost.
#
# Knobs (fixed defaults keep points comparable across runs):
#
#   BENCHTIME       suite-bench budget     (default 1x: deterministic
#                   single-iteration timing — the suite benches simulate
#                   a full figure per iteration, so 1x is already
#                   seconds)
#   MICRO_BENCHTIME micro-bench budget     (default 0.5s: the engine/
#                   collective/simnet micro benches cost nanoseconds to
#                   microseconds per op, so a single iteration would
#                   measure constant setup cost, not the operation —
#                   these need many iterations for a steady-state ns/op)
#   COUNT           repetitions per benchmark (default 3; the JSON keeps
#                   every sample so consumers can take min/median of the
#                   non-warmup ones)
#   FILTER          -bench regexp          (default SuiteSerial|
#                   SuiteParallel|RingAllReduce|EventDispatch|TaskSwitch|
#                   SameInstantFanOut|FlowLifecycle|RingBesideLoaders|
#                   RingBesideUpload|WorldBuild|
#                   BlameAttribute|TableRender)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
MICRO_BENCHTIME="${MICRO_BENCHTIME:-0.5s}"
COUNT="${COUNT:-3}"
FILTER="${FILTER:-SuiteSerial|SuiteParallel|RingAllReduce|EventDispatch|TaskSwitch|SameInstantFanOut|FlowLifecycle|RingBesideLoaders|RingBesideUpload|WorldBuild|BlameAttribute|TableRender}"
# The effective scheduler width: parallel_speedup (SuiteSerial /
# SuiteParallel) is only meaningful when the parallel suite actually had
# more than one P to run on, so single-P hosts record gomaxprocs and
# omit the ratio instead of emitting a misleading ~1.0x.
GOMAXPROCS_EFF="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
DATE="$(date -u +%Y%m%d)"
if [ -z "${OUT:-}" ]; then
    OUT="BENCH_${DATE}.json"
    r=2
    while [ -e "$OUT" ]; do
        OUT="BENCH_${DATE}_r${r}.json"
        r=$((r + 1))
    done
fi
RAW="$(mktemp)"
TRACED="$(mktemp)"
trap 'rm -f "$RAW" "$TRACED"' EXIT

echo "==> go test -bench '$FILTER' -benchtime=$BENCHTIME -count=$COUNT (suite)"
go test -run '^$' -bench "$FILTER" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
    . | tee "$RAW"
echo "==> go test -bench '$FILTER' -benchtime=$MICRO_BENCHTIME -count=$COUNT (micro)"
go test -run '^$' -bench "$FILTER" -benchmem -benchtime "$MICRO_BENCHTIME" -count "$COUNT" \
    ./internal/collective ./internal/report ./internal/sim ./internal/simnet ./internal/trace ./internal/train | tee -a "$RAW"

echo "==> bash bench/run.sh --workload suite-cold --seed 1 --seconds 1 --trace 1 (layer shares)"
bash bench/run.sh --workload suite-cold --seed 1 --seconds 1 --trace 1 > "$TRACED"
# The last line is the run's JSON result; every metric is
# "name":{"value":v,"unit":u}. A wrong answer makes the shares worthless.
if ! tail -n 1 "$TRACED" | grep -q '"correct":true'; then
    echo "bench.sh: traced suite-cold pass was not correct:" >&2
    tail -n 1 "$TRACED" >&2
    exit 1
fi
LAYER_SHARE="$(tail -n 1 "$TRACED" | grep -o '"cpu_share\.[a-z]*":{"value":[^,}]*' |
    sed 's/^"cpu_share\.\([a-z]*\)":{"value":\(.*\)$/"\1": \2/' | paste -sd, - | sed 's/,/, /g')"

# Convert the textual benchmark lines into JSON. A line looks like
#   BenchmarkSuiteSerial-8   1   123456789 ns/op   456 B/op   7 allocs/op
# Fields beyond ns/op are optional and preserved when present. The first
# sample of each benchmark is marked as warmup.
awk -v date="$DATE" -v layershare="$LAYER_SHARE" -v benchtime="$BENCHTIME" -v microbenchtime="$MICRO_BENCHTIME" -v count="$COUNT" -v gomaxprocs="$GOMAXPROCS_EFF" '
BEGIN { n = 0 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^pkg:/    { pkg = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && $4 == "ns/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    extra = ""
    for (i = 5; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "B/op") unit = "bytes_per_op"
        gsub(/\//, "_per_", unit)
        extra = extra sprintf(", \"%s\": %s", unit, $i)
    }
    key = pkg "/" name
    if (!(key in seen)) { seen[key] = 1; extra = extra ", \"warmup\": true" }
    else if (pkg == "stash") {
        # Steady-state suite minima feed the derived parallel_speedup
        # field (SuiteSerial / SuiteParallel ns), the tentpole headline
        # metric benchcmp tracks across snapshots.
        if (name == "BenchmarkSuiteSerial" && (!serialMin || $3 + 0 < serialMin)) serialMin = $3 + 0
        if (name == "BenchmarkSuiteParallel" && (!parallelMin || $3 + 0 < parallelMin)) parallelMin = $3 + 0
    }
    line = sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}",
                   name, pkg, $2, $3, extra)
    lines[n++] = line
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"micro_benchtime\": \"%s\",\n", microbenchtime
    printf "  \"count\": %s,\n", count
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    # On a single-P host SuiteParallel degenerates to serial execution
    # and the ratio reads ~1.0x — noise, not a speedup — so it is
    # omitted; benchcmp reads gomaxprocs and skips the diff with a note.
    if (serialMin && parallelMin && gomaxprocs + 0 >= 2)
        printf "  \"parallel_speedup\": %.4f,\n", serialMin / parallelMin
    printf "  \"layer_share\": {%s},\n", layershare
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$RAW" > "$OUT"

echo "==> wrote $OUT ($(grep -c '"name"' "$OUT") samples)"
