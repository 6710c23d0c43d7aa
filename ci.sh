#!/usr/bin/env bash
# CI entry point. Six jobs:
#   ./ci.sh verify    — tier-1: configure, build, run the full test suite
#   ./ci.sh sanitize  — ASan+UBSan build of src/ + tests, warnings-as-errors
#   ./ci.sh tsan      — TSan build; runs the parallel-runtime test slice
#   ./ci.sh docs      — markdown links resolve; EXPERIMENTS.md covers every
#                       bench binary and names no binary that doesn't build
#   ./ci.sh bench     — kernels_bench --quick through the RunReport schema,
#                       the <2% profiler-overhead gate (DESIGN.md §11, median
#                       of interleaved off/on steps in one process), the
#                       engine events/sec gate vs the committed baseline
#                       (tools/check_engine_perf.py, >30% regression fails),
#                       and the kernel throughput gate
#                       (tools/check_kernel_perf.py, >50% regression fails)
#   ./ci.sh perfbench — the end-to-end benchmark's self-test
#                       (perfbench/run.py --self-test)
# No arguments runs all in sequence.
set -euo pipefail
cd "$(dirname "$0")"

jobs="${CI_JOBS:-$(nproc)}"

verify() {
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

sanitize() {
  cmake -B build-asan -S . \
    -DACTCOMP_SANITIZE=ON \
    -DACTCOMP_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$jobs"
  # halt_on_error so ctest reports sanitizer hits as failures.
  ASAN_OPTIONS=detect_leaks=0:halt_on_error=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
  # The simulator-pinning harness (randomized-DAG properties, fault-layer
  # determinism, byte-for-byte golden tables) and the resilience surface
  # (checkpoint serialization, crash-recovery replay) get an explicit pass
  # under the sanitizers: these suites drive the engine, the fault RNG, and
  # the checkpoint byte-plumbing hardest, and a silent skip here (e.g. a
  # test-name prefix regression hiding them from the -R filter) must fail
  # loudly, so require a non-empty selection. The compress/, wire and
  # Lossless suites join for the lossless codec layer: hand-rolled byte
  # coders (RLE runs, Huffman bit accumulators, plane gathers) are exactly
  # where ASan/UBSan catch off-by-one overruns and shift UB. tensor/ and
  # Simd join for the strided GEMM (transposed operands, head column
  # blocks, C rows ldc apart) and the GELU polynomial, whose float-to-int
  # step UBSan's float-cast-overflow check watches on NaN, ±Inf and huge
  # inputs; Attention and TrainingPlane for the attention core, which
  # walks every head's Q, K, V and context through raw strides.
  # obs/Json joins because its parser reads checkpoint metadata and
  # --trace-in serving traces: hostile bytes reach it. WireAgreement runs
  # every real encoder against compress::wire_bytes, the bytes the
  # simulator charges.
  ASAN_OPTIONS=detect_leaks=0:halt_on_error=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan \
      -R 'golden|property|engine|topology|checkpoint|recovery|kv_cache|serving|Simd|tensor/|compress/|wire|WireAgreement|Lossless|obs/Json|Attention|TrainingPlane' \
      --no-tests=error --output-on-failure -j "$jobs"
  # The same slice once more with the kernel dispatch pinned to the scalar
  # tier: the SIMD tiers must be a pure throughput change (DESIGN.md §15),
  # so the byte-level suites have to pass identically with them disabled —
  # and the scalar kernels get their own sanitizer coverage.
  ACTCOMP_SIMD=scalar \
  ASAN_OPTIONS=detect_leaks=0:halt_on_error=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan \
      -R 'golden|property|engine|topology|checkpoint|recovery|kv_cache|serving|Simd|tensor/|compress/|wire|WireAgreement|Lossless|obs/Json|Attention|TrainingPlane' \
      --no-tests=error --output-on-failure -j "$jobs"
}

tsan() {
  cmake -B build-tsan -S . \
    -DACTCOMP_SANITIZE=thread \
    -DACTCOMP_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$jobs" \
    --target core_test tensor_test compress_test obs_test \
             checkpoint_test recovery_test topology_test \
             kv_cache_test serving_test serving_resilience_test \
             property_test
  # Everything that calls parallel_for runs under TSan: the runtime itself
  # (core/), the tensor kernels (tensor/), the compressor kernels
  # (compress/), and the profiler/registry (obs/), whose zone buffers and
  # CAS loops are exactly the cross-thread state TSan can vet. The
  # checkpoint/recovery suites join because checkpoint capture and the
  # training loop underneath it run tensor kernels on the pool too, and
  # topology/ because the 3D simulator it drives is the newest surface the
  # sanitizers should sweep. kv_cache/ runs its differential decode harness
  # at 1 and 4 pool threads (bit-identity across thread counts is exactly a
  # TSan question), and serving/ and serving_resilience/ join because the
  # one serving scheduler's seeded determinism contract (same report at any
  # thread count) is a TSan claim; serving/ also replays its step schedule
  # on sim::Engine.
  # The lossless wire suites join through compress/ (codec unit tests) and
  # the property/Lossless|Stacked slices: the stacked compressor drives the
  # Top-K/quantize inner codecs' parallel_for gathers under TSan.
  # --no-tests=error guards against a prefix regression silently
  # deselecting the slice.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan \
      -R 'core/|tensor/|compress/|obs/|checkpoint/|recovery/|topology/|kv_cache/|serving/|serving_resilience/|property/Lossless|property/Stacked' \
      --no-tests=error --output-on-failure -j "$jobs"
}

docs() {
  python3 tools/check_docs.py
}

bench() {
  cmake -B build -S .
  cmake --build build -j "$jobs" --target kernels_bench
  mkdir -p build/bench-ci
  # One quick run of the seeded sweep. Its profiler_overhead records time
  # interleaved profiler-off/on fine-tune steps in that one process, and the
  # overhead gate reads their median on/off ratio (enabled-profiler
  # overhead < 2%; override with ACTCOMP_OVERHEAD_PCT).
  (cd build/bench-ci && ../bench/kernels_bench --quick bench_quick.json)
  python3 tools/check_overhead.py build/bench-ci/bench_quick.json \
    "${ACTCOMP_OVERHEAD_PCT:-2.0}"
  # Engine throughput gate: a quick events/sec run against the committed
  # baseline (regenerate with `engine_bench --quick bench/baselines/
  # BENCH_engine.json` on a quiet box when the engine legitimately changes).
  cmake --build build -j "$jobs" --target engine_bench
  (cd build/bench-ci && ../bench/engine_bench --quick bench_engine.json)
  python3 tools/check_engine_perf.py \
    bench/baselines/BENCH_engine.json build/bench-ci/bench_engine.json \
    "${ACTCOMP_ENGINE_PERF_PCT:-30.0}"
  # Kernel throughput gate: the quick run above against the committed
  # baseline (regenerate with `kernels_bench bench/baselines/
  # BENCH_kernels.json` on a quiet box when the kernels legitimately
  # change; keep the slower of repeated runs per record). Catches the
  # dispatch landing in the wrong SIMD tier — that is a ~30x drop, so the
  # 50% default rides out the reference box's frequency swings.
  python3 tools/check_kernel_perf.py \
    bench/baselines/BENCH_kernels.json build/bench-ci/bench_quick.json \
    "${ACTCOMP_KERNEL_PERF_PCT:-50.0}"
}

perfbench() {
  # Tiny shapes of all four workloads, traced and untraced, built from this
  # checkout. Fails on any failed operation — each workload checks its own
  # outputs; simulate checks both serving entry points: the clean replica
  # completes every request, and the fleet accounts for every request
  # (completed + shed + failed == offered) — or when the metric names or
  # units drift from BENCHMARK.json.
  python3 perfbench/run.py --self-test
}

case "${1:-all}" in
  verify) verify ;;
  sanitize) sanitize ;;
  tsan) tsan ;;
  docs) docs ;;
  bench) bench ;;
  perfbench) perfbench ;;
  all)
    verify
    sanitize
    tsan
    docs
    bench
    perfbench
    ;;
  *)
    echo "usage: $0 [verify|sanitize|tsan|docs|bench|perfbench|all]" >&2
    exit 2
    ;;
esac
