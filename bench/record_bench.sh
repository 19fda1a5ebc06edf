#!/usr/bin/env bash
# record_bench.sh - build and run a recorded benchmark, then validate and
# install its BENCH_<name>.json record at the repo root.
#
# Usage:
#   bench/record_bench.sh                      # sweep lattice, scale 0.1
#   bench/record_bench.sh --scale=0.02         # quicker sweep smoke
#   bench/record_bench.sh --pressures=2        # hit-dominated slice
#   bench/record_bench.sh adversarial          # degradation, scale 0.25
#   bench/record_bench.sh adversarial --seed=7 # custom adversarial run
#   bench/record_bench.sh service              # 20M-op shared-engine run
#   bench/record_bench.sh service --ops=500000 # quicker service smoke
#   bench/record_bench.sh sharing              # cross-tenant sharing study
#   bench/record_bench.sh sharing --scale=0.5  # quicker sharing smoke
#
# The first argument names the benchmark ("sweep", the default,
# "adversarial", "service", or "sharing"); every other flag is forwarded
# to the binary (none: the bench's default arguments). The build tree
# defaults to ./build (override with BUILD_DIR). bench/record_bench.cmake
# builds the binary, runs it, and validates the record against the
# bench's row of its table, so a record is only installed if its binary
# exits 0 AND its gates hold: sweep gates bit-identity of the one-pass
# results, adversarial the 5x degradation floor, service the
# shared-engine conservation/audit/accounting invariants, sharing the
# refcount-conservation and footprint-dedup claims. CI runs the same
# script without a shell.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

BENCH=sweep
if [[ $# -gt 0 && $1 != --* ]]; then
  BENCH="$1"
  shift
fi

cmake -B "$BUILD" -S "$ROOT" >/dev/null
ARGS_LIST="$(IFS=';'; echo "$*")"
cmake -DBENCH="$BENCH" -DBUILD_DIR="$BUILD" \
      -DJSON="$ROOT/BENCH_$BENCH.json" -DARGS="$ARGS_LIST" \
      -P "$ROOT/bench/record_bench.cmake"
echo "recorded $ROOT/BENCH_$BENCH.json"
