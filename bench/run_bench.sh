#!/usr/bin/env bash
# Runs the hot-path micro-benchmarks and emits their JSON results at the
# repo root (BENCH_channel.json / BENCH_pool.json / BENCH_kernels.json /
# BENCH_net.json / BENCH_telemetry.json). Every PR that touches a hot path
# re-runs this script and commits the refreshed JSON, so the perf
# trajectory is tracked in-tree from PR 1 onward.
#
# The committed JSON is only ever produced from a Release build: the script
# reads CMAKE_BUILD_TYPE out of the build directory's CMakeCache.txt and
# refuses to write BENCH_*.json from anything else. (The JSON's own
# "library_build_type" field reports the prebuilt benchmark library, not
# this repo's flags, so it cannot serve as the gate.)
#
# Usage:
#   bench/run_bench.sh [--smoke] [build-dir]
#
#   --smoke  run every benchmark with --benchmark_min_time=0.01 and no
#            JSON output — a CI-speed smoke that the binaries still run.
#            The Release gate is skipped since nothing is recorded.
#
# Each JSON's "context" records the host: nproc, cpu_model (from
# /proc/cpuinfo) and compiler (the build's CMAKE_CXX_COMPILER --version).
#
# Environment:
#   BENCH_FILTER       --benchmark_filter regex (default: all)
#   BENCH_REPETITIONS  --benchmark_repetitions (default: 1)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
BUILD=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    -*) echo "usage: bench/run_bench.sh [--smoke] [build-dir]" >&2; exit 2 ;;
    *) BUILD="$arg" ;;
  esac
done
BUILD="${BUILD:-$ROOT/build}"

BINARIES=(micro_channel micro_pool micro_kernels net_throughput micro_telemetry)

missing=0
for bin in "${BINARIES[@]}"; do
  [[ -x "$BUILD/bench/$bin" ]] || missing=1
done
if [[ "$missing" -ne 0 ]]; then
  echo "building benchmarks in $BUILD..." >&2
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
  cmake --build "$BUILD" -j --target "${BINARIES[@]}" >/dev/null
fi

if [[ "$SMOKE" -eq 0 ]]; then
  if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$BUILD/CMakeCache.txt" 2>/dev/null; then
    echo "run_bench.sh: $BUILD is not a Release build; refusing to write BENCH_*.json." >&2
    echo "  configure with: cmake --preset release   (or pass a release build dir)" >&2
    echo "  or run with --smoke to execute the benchmarks without recording." >&2
    exit 1
  fi
fi

# Host record. google/benchmark's own context has the core count and
# caches but neither the CPU model nor the compiler, so add them. Commas
# and '=' would split its key=value list, so they become spaces.
context_value() { tr ',=' '  ' <<<"$1"; }
cpu_model="$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)"
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null || true)"
compiler="$("${cxx:-c++}" --version 2>/dev/null | head -n1 || true)"
context="nproc=$(nproc)"
context+=",cpu_model=$(context_value "${cpu_model:-unknown}")"
context+=",compiler=$(context_value "${compiler:-unknown}")"

common_args=(
  "--benchmark_filter=${BENCH_FILTER:-.}"
  "--benchmark_repetitions=${BENCH_REPETITIONS:-1}"
  "--benchmark_context=$context"
)

run() {
  local bin="$1" out="$2"
  if [[ "$SMOKE" -eq 1 ]]; then
    echo "== $bin (smoke)" >&2
    # bare seconds, not "0.01s": the suffixed form only parses on
    # google/benchmark >= 1.8, the bare double parses everywhere
    "$BUILD/bench/$bin" "${common_args[@]}" --benchmark_min_time=0.01
  else
    echo "== $bin -> $out" >&2
    "$BUILD/bench/$bin" "${common_args[@]}" \
      --benchmark_out_format=json "--benchmark_out=$ROOT/$out"
  fi
}

run micro_channel BENCH_channel.json
run micro_pool BENCH_pool.json
run micro_kernels BENCH_kernels.json
run net_throughput BENCH_net.json
run micro_telemetry BENCH_telemetry.json

if [[ "$SMOKE" -eq 1 ]]; then
  echo "bench smoke passed (no JSON written)" >&2
else
  echo "wrote $ROOT/BENCH_channel.json, $ROOT/BENCH_pool.json," \
       "$ROOT/BENCH_kernels.json, $ROOT/BENCH_net.json and" \
       "$ROOT/BENCH_telemetry.json" >&2
fi
