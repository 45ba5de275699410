#!/usr/bin/env bash
# Regenerates bench_output.txt (all experiment tables) and test_output.txt.
# SMOKE=1 runs the quick CI-sized case of every bench that has one
# (bench_flow_sim, bench_resilience, bench_warm_restart, bench_scale_permits,
# bench_scale_routing, bench_million) instead of its full sweep.
# JSON-emitting benches each write BENCH_<name>.json at the repo root
# (override per bench with --json_out=<path>); CI uploads these as
# artifacts and gates on them via scripts/check_bench_regression.py.
set -u
cd "$(dirname "$0")/.."
cmake -B build -G Ninja && cmake --build build || exit 1
ctest --test-dir build 2>&1 | tee test_output.txt
: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "### $(basename "$b")" | tee -a bench_output.txt
  args=""
  case "$(basename "$b")" in
    bench_flow_sim|bench_resilience|bench_warm_restart|bench_scale_permits|\
    bench_scale_routing|bench_million)
      [ "${SMOKE:-0}" = 1 ] && args="smoke" ;;
  esac
  "$b" $args 2>&1 | tee -a bench_output.txt
done
