#!/usr/bin/env bash
# Full verification sweep:
#   1. tier-1: Release build with -Werror (L2SIM_WERROR=ON, so a new
#      compiler warning fails the sweep) + entire test suite
#   2. benchmark smoke: perfbench/test_perfbench.py builds the benchmark
#      binary from this checkout (.bench_build/perfbench) and runs every
#      BENCHMARK.json workload at 2% scale in both modes, so a library
#      change that breaks the benchmark's policy overrides or its digest
#      check fails here rather than in a benchmark run
#   3. DES kernel bench (gates: >=2x open-loop speedup, zero steady-state
#      heap allocations in the inline kernel)
#   4. fault bench (gates: crash/failover/loss acceptance criteria from
#      docs/bench_fault.md, plus bit-reproducibility)
#   5. telemetry bench (gates: <=1% overhead with spans off, <=5% at 1/64
#      span sampling; schema in docs/telemetry.md)
#   6. overload bench (gates: metastable-collapse acceptance from
#      docs/overload.md — undefended 3x-flash+crash baseline collapses,
#      the AIMD+budget+brownout stack keeps >= 70% of nominal goodput,
#      chaos replay bit-identical serial and under run_parallel); emits
#      build/BENCH_overload.json
#   7. obs bench (gates: <=2% saturated-throughput overhead with the
#      default flight-recorder ring on; see docs/observability.md); emits
#      build/BENCH_obs.json
#   8. topology bench (gate: flow-level transfers cut scheduled events
#      >= 5x on the 256-node forwarding-heavy rack cell; see
#      docs/topology.md); emits build/BENCH_topology.json
#   9. analytic bench (gates: Che hit rate within 5 pp of the DES on
#      every fault-free golden/stress cell, >= 100x analytic-vs-DES
#      wall-clock on the 64-cell sweep; see docs/analytic.md) and the
#      planner study (gate: the planned top-quartile brackets the
#      measured paper-figure knee to within one grid cell); emits
#      build/BENCH_analytic.json
#  10. AddressSanitizer + UndefinedBehaviorSanitizer build (build-asan/,
#      with _GLIBCXX_ASSERTIONS, so std::vector and std::array indexing is
#      bounds-checked too, and -fno-sanitize-recover=undefined, so the first
#      UB report fails its test): all eight test binaries, the l2sim CLI and
#      policy_comparison, and ctest runs every registered test once — the
#      gtest suites, the cli.* smoke tests and every `l2sim study`
#      (cli.study.*, label `study`, each at --scale 0.005 on 2 threads;
#      span-breakdown's passes only when its span reconstruction matches
#      the engine). Continuations live in scheduler slots, resource slots
#      and pooled VIA message and broadcast records and name their
#      connection by a handle into the connection pool's slots; broadcast
#      deliveries wait as ids in receiver inboxes behind tagged runs; the
#      caches index files by slot arithmetic; the replica table reaches
#      rows through chunk masks, and its shared member lists count their
#      holders by hand. A lifetime, indexing or arithmetic bug could
#      surface in any suite
#  11. ThreadSanitizer build (build-tsan/): the same full suite, once
#      (run_parallel, the thread budget and the per-job telemetry merge are
#      the threaded code; every study runs its simulations through
#      run_parallel)
#
# Usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
skip_tsan=0
skip_asan=0
skip_bench=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    --skip-bench) skip_bench=1 ;;
    *) echo "usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-bench]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: Release build (-Werror) + full test suite =="
cmake -B build -S . -DL2SIM_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== benchmark smoke: build the perfbench binary, every workload at 2% scale =="
python3 perfbench/test_perfbench.py

echo "== clang-tidy: core engine (skipped when clang-tidy is unavailable) =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p build --quiet \
    src/core/*.cpp src/core/engine/*.cpp
else
  echo "clang-tidy not installed; skipping static analysis"
fi

if [[ "$skip_bench" -eq 0 ]]; then
  echo "== DES kernel bench (speedup + zero-allocation gates) =="
  ./build/bench/des_kernel_bench --out build/BENCH_des_kernel.json
  echo "== fault bench (availability acceptance gates) =="
  ./build/bench/fault_bench --out build/BENCH_fault.json
  echo "== telemetry bench (overhead gates) =="
  ./build/bench/telemetry_bench --out build/BENCH_telemetry.json
  echo "== overload bench (metastable-collapse acceptance gates) =="
  ./build/bench/overload_bench --out build/BENCH_overload.json
  echo "== obs bench (flight-recorder overhead gate) =="
  ./build/bench/obs_bench --out build/BENCH_obs.json
  echo "== topology bench (flow-mode event-cut gate) =="
  ./build/bench/topology_bench --out build/BENCH_topology.json
  echo "== analytic bench (Che-vs-DES accuracy + sweep speedup gates) =="
  ./build/bench/analytic_bench --out build/BENCH_analytic.json
  echo "== planner study (knee-bracketing gate) =="
  ./build/bench/planner_study
fi

# Each sanitizer block runs the whole suite once, unfiltered: the gtest
# binaries, the cli.* tests and the `study`-labelled cli.study.* tests.
# (ctest 3.25 reads the argument after a bare `-j` as the job count, which
# used to drop every -R/-L filter here and ran the suite twice per
# sanitizer.) The list holds every target a registered test runs,
# l2sim_cli and policy_comparison included, or ctest reports the missing
# ones as *_NOT_BUILT.
tests="l2sim_tests l2sim_fault_tests l2sim_telemetry_tests l2sim_obs_tests l2sim_topo_tests l2sim_largen_tests l2sim_chaos_tests l2sim_model_tests l2sim_cli policy_comparison"

if [[ "$skip_asan" -eq 0 ]]; then
  echo "== AddressSanitizer + UndefinedBehaviorSanitizer: every test =="
  cmake -B build-asan -S . -DL2SIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$(nproc)" --target $tests
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fi

if [[ "$skip_tsan" -eq 0 ]]; then
  echo "== ThreadSanitizer: every test =="
  cmake -B build-tsan -S . -DL2SIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target $tests
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
fi

echo "check.sh: all green"
