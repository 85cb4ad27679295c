#!/usr/bin/env sh
# Staged verification driver (see docs/ANALYSIS.md for the tier model).
#
#   tools/check.sh            # tier 1 + tier 2 (ASan/UBSan chaos, arena and
#                             # assembler tests, fuzz)
#   tools/check.sh --fast     # tier 1 only: release build + full ctest
#   tools/check.sh --lint     # tier 1 + project lint
#   tools/check.sh --tsan     # tier 1 + ThreadSanitizer concurrency tier
#   tools/check.sh --fuzz     # tier 1 + sanitized arena/assembler tests and
#                             # decoder fuzzing
#   tools/check.sh --perf     # tier 1 + perf smoke: zero-allocation gate,
#                             # SIMD speedup floor, verify-cost gate,
#                             # allreduce algorithm-selection gates,
#                             # scheduler throughput gate, end-to-end
#                             # smoke (bench/e2e/run.sh --smoke)
#   tools/check.sh --cov      # tier 1 + line-coverage gate (every ctest tier)
#   tools/check.sh --recovery # tier 1 + sanitized rank-failure tier + seed sweep
#                             # + the rank-failure tier under ThreadSanitizer
#   tools/check.sh --sched    # tier 1 + sanitized nonblocking/scheduler tier
#                             # + multi-seed scheduler determinism sweep
#   tools/check.sh --integrity # tier 1 + sanitized ABFT/SDC tier + 8-seed
#                             # silent-corruption sweep through the CLI
#   tools/check.sh --kernels  # tier 1 + conformance tier at every forced
#                             # dispatch level, plain and under ASan/UBSan,
#                             # + SIMD speedup gate
#   tools/check.sh --analyze  # tier 1 + whole-program static contracts
#                             # (hot-path allocation/stack/exception proofs)
#   tools/check.sh --all      # everything
#
# Flags combine (e.g. --lint --tsan).  Exit nonzero on the first failing
# stage.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_asan=1 run_lint=0 run_tsan=0 run_fuzz=0 run_perf=0 run_cov=0 run_recovery=0 run_sched=0 run_kernels=0 run_analyze=0 run_integrity=0
for arg in "$@"; do
  case "$arg" in
    --fast) run_asan=0 ;;
    --lint) run_lint=1 ;;
    --tsan) run_tsan=1 ;;
    --fuzz) run_asan=0; run_fuzz=1 ;;
    --perf) run_perf=1 ;;
    --cov)  run_cov=1 ;;
    --recovery) run_recovery=1 ;;
    --sched) run_sched=1 ;;
    --kernels) run_kernels=1 ;;
    --analyze) run_analyze=1 ;;
    --integrity) run_integrity=1 ;;
    --all)  run_asan=1 run_lint=1 run_tsan=1 run_fuzz=1 run_perf=1 run_cov=1 run_recovery=1 run_sched=1 run_kernels=1 run_analyze=1 run_integrity=1 ;;
    *) echo "usage: tools/check.sh [--fast] [--lint] [--tsan] [--fuzz] [--perf] [--cov] [--recovery] [--sched] [--kernels] [--analyze] [--integrity] [--all]" >&2; exit 2 ;;
  esac
done

# The ThreadSanitizer build shared by --tsan and --recovery.  GCC's libgomp
# is not TSan-instrumented, so its internal synchronization is invisible to
# the runtime; tools/tsan.supp whitelists those barriers (see
# docs/ANALYSIS.md).  Everything else must be race-free.
configure_tsan() {
  cmake -B "$repo/build-tsan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    -DHZCCL_BUILD_BENCH=OFF -DHZCCL_BUILD_EXAMPLES=OFF
}
tsan_env="suppressions=$repo/tools/tsan.supp halt_on_error=1 second_deadlock_stack=1"

echo "== tier 1: configure + build + ctest (unit/property/chaos/lint/fuzz) =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs"
(cd "$repo/build" && ctest --output-on-failure)

if [ "$run_lint" = "1" ]; then
  echo "== lint: project conventions (tools/lint.sh) =="
  "$repo/tools/lint.sh"
fi

if [ "$run_analyze" = "1" ]; then
  echo "== analyze: whole-program static contracts (tools/analyze) =="
  # Proves three hot-path contracts on the call graph stitched from the
  # tier-1 build's -fcallgraph-info/-fstack-usage artifacts: no allocation
  # reachable from HZCCL_HOT code, stack frames and worst-case paths under
  # budget, and only the sanctioned error family thrown.  The selftest runs
  # first so a broken analyzer cannot green-light a broken library.
  python3 "$repo/tools/analyze/selftest.py"
  python3 "$repo/tools/analyze/analyze.py" --build "$repo/build" \
    --report "$repo/build/analyze_report.txt"
fi

if [ "$run_asan" = "1" ] || [ "$run_fuzz" = "1" ] || [ "$run_recovery" = "1" ] || [ "$run_sched" = "1" ] || [ "$run_integrity" = "1" ]; then
  echo "== tier 2: ASan/UBSan build =="
  san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  cmake -B "$repo/build-asan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$san_flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$repo/build-asan" -j "$jobs" \
    --target faults_test property_test trace_test bytes_test pool_test format_test \
             fuzz_decoders recovery_test parity_test hzcclc
  if [ "$run_asan" = "1" ]; then
    echo "== tier 2: sanitized chaos + property + trace + corpus =="
    (cd "$repo/build-asan" && ctest -L 'chaos|property|trace' --output-on-failure)
    "$repo/build-asan/tests/bytes_test"
  fi
  echo "== tier 2: sanitized scratch arena + stream assembler (pool_test, format_test) =="
  # The assembler's chunk regions are uninitialized arena scratch; under
  # ASan/UBSan the stale-scratch differential and the assembler tests catch
  # a read of a byte no op wrote, or a write past a region.
  "$repo/build-asan/tests/pool_test"
  "$repo/build-asan/tests/format_test"
  echo "== tier 2: sanitized decoder fuzzing =="
  "$repo/build-asan/tests/fuzz_decoders" --iterations="${HZCCL_FUZZ_ITERATIONS:-10000}"
fi

if [ "$run_recovery" = "1" ]; then
  echo "== recovery: sanitized rank-failure tier (detection/agreement/shrink+retry) =="
  # recovery_test, plus the parity suite: one sched::Engine job against
  # run_collective under every rank-fault plan (also in the sched tier).
  (cd "$repo/build-asan" && ctest -L recovery --output-on-failure)
  echo "== recovery: multi-seed shrink-and-retry sweep (hzcclc, 8 seeds) =="
  # Seed-derived crash schedule: each seed fails a different rank at a
  # different point; the job must complete over the survivors every time.
  for seed in 11 12 13 14 15 16 17 18; do
    echo "-- recovery sweep: seed $seed"
    "$repo/build-asan/tools/hzcclc" collective --kernel 2 --ranks 8 \
      --dataset hurricane --scale tiny \
      --faults "$seed,0.02,0.01" --rank-faults crash --retry 3 >/dev/null
  done
  echo "== recovery: rank-failure tier under ThreadSanitizer (recovery_test) =="
  # The control plane (barrier, agreement, shrink, held-frame release) is
  # shared state every rank thread touches; this run proves it race-free.
  configure_tsan
  cmake --build "$repo/build-tsan" -j "$jobs" --target recovery_test
  TSAN_OPTIONS="$tsan_env" "$repo/build-tsan/tests/recovery_test"
fi

if [ "$run_sched" = "1" ]; then
  echo "== sched: sanitized nonblocking engine + scheduler tier =="
  # Differential (i-collectives byte-identical to blocking across stacks,
  # algorithms, and topologies, under overlap and reordering) and property
  # (determinism, fusion, no-starvation, fair-share accounting,
  # recovery-under-concurrency) suites, under ASan/UBSan.
  cmake --build "$repo/build-asan" -j "$jobs" --target sched_test sched_property_test
  (cd "$repo/build-asan" && ctest -L sched --output-on-failure)
  echo "== sched: multi-seed scheduler determinism sweep (hzcclc sched, 4 seeds x 2) =="
  # Each seed drives a multi-tenant workload through the engine twice; the
  # printed timeline (grant/complete virtual times, fusion decisions,
  # payload bytes) must replay byte-identically, and every job must
  # complete (nonzero exit otherwise).
  for seed in 21 22 23 24; do
    echo "-- sched sweep: seed $seed"
    "$repo/build-asan/tools/hzcclc" sched --seed "$seed" > "$repo/build-asan/sched_run_a.txt"
    "$repo/build-asan/tools/hzcclc" sched --seed "$seed" > "$repo/build-asan/sched_run_b.txt"
    cmp "$repo/build-asan/sched_run_a.txt" "$repo/build-asan/sched_run_b.txt"
  done
fi

if [ "$run_integrity" = "1" ]; then
  echo "== integrity: sanitized ABFT digest + SDC tier =="
  # Digest algebra, emission/detection, operator folding, SDC recovery
  # differentials and the sched taint path, under ASan/UBSan.
  cmake --build "$repo/build-asan" -j "$jobs" --target integrity_test
  (cd "$repo/build-asan" && ctest -L integrity --output-on-failure)
  echo "== integrity: multi-seed silent-corruption sweep (hzcclc --sdc, 8 seeds x 2) =="
  # Each seed flips payload bits post-CRC across an 8-rank allreduce under
  # per-round verification; the recovered run must land inside the C-Coll
  # error-growth envelope (3x the printed nominal bound) and replay
  # byte-identically — virtual times and integrity counters included.
  # Across the sweep at least one flip must have been caught by a digest
  # (not just the structural decode check), or detection has regressed.
  caught=0
  for seed in 31 32 33 34 35 36 37 38; do
    echo "-- integrity sweep: seed $seed"
    "$repo/build-asan/tools/hzcclc" collective --kernel 2 --ranks 8 \
      --dataset hurricane --scale tiny \
      --verify round --sdc "$seed,0.05" > "$repo/build-asan/integrity_run_a.txt"
    "$repo/build-asan/tools/hzcclc" collective --kernel 2 --ranks 8 \
      --dataset hurricane --scale tiny \
      --verify round --sdc "$seed,0.05" > "$repo/build-asan/integrity_run_b.txt"
    cmp "$repo/build-asan/integrity_run_a.txt" "$repo/build-asan/integrity_run_b.txt"
    awk '/max abs err/ {
           err = $5 + 0; gsub(/[),]/, "", $7); bound = $7 + 0
           if (err > 3 * bound) { print "integrity sweep: " err " exceeds 3x bound " bound; exit 1 }
         }' "$repo/build-asan/integrity_run_a.txt"
    if grep -q "mismatch=[1-9]" "$repo/build-asan/integrity_run_a.txt"; then
      caught=$((caught + 1))
    fi
  done
  [ "$caught" -gt 0 ] || { echo "integrity sweep: no seed produced a digest detection" >&2; exit 1; }
fi

if [ "$run_kernels" = "1" ]; then
  echo "== kernels: conformance tier at every forced dispatch level =="
  # The scalar pass checks the oracle against itself (and the dispatch
  # mechanics); each SIMD pass re-runs the byte-identity sweep with the
  # level forced through the env override, proving the override path and
  # the kernels together.  Unsupported levels clamp down gracefully, so the
  # sweep is safe on any host.
  cmake --build "$repo/build" -j "$jobs" \
    --target kernel_conformance_test kernel_dispatch_test bench_kernels fz_light_test \
    nonfinite_test
  # fz_light_test and nonfinite_test reach fz_compress's per-level compress
  # walk (raw fallback, range guard, capacity), so they run at every level.
  for level in scalar avx2 avx512; do
    echo "-- kernels: HZCCL_KERNEL_LEVEL=$level"
    (cd "$repo/build" && HZCCL_KERNEL_LEVEL=$level ctest -L kernels --output-on-failure &&
      HZCCL_KERNEL_LEVEL=$level tests/fz_light_test && HZCCL_KERNEL_LEVEL=$level tests/nonfinite_test)
  done
  echo "== kernels: sanitized conformance tier (ASan/UBSan) at every forced level =="
  # The block kernels rely on exact-length masked loads and stores; the
  # conformance tests place inputs flush against the end of their
  # allocations and frame outputs with canaries, so under ASan/UBSan an
  # over-read, an over-write or a signed overflow in a kernel body fails.
  cmake -B "$repo/build-asan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$repo/build-asan" -j "$jobs" \
    --target kernel_conformance_test kernel_dispatch_test fz_light_test nonfinite_test
  for level in scalar avx2 avx512; do
    echo "-- kernels (sanitized): HZCCL_KERNEL_LEVEL=$level"
    (cd "$repo/build-asan" && HZCCL_KERNEL_LEVEL=$level ctest -L kernels --output-on-failure &&
      HZCCL_KERNEL_LEVEL=$level tests/fz_light_test && HZCCL_KERNEL_LEVEL=$level tests/nonfinite_test)
  done
  echo "== kernels: SIMD speedup gate (bench_kernels --simd-floor) =="
  "$repo/build/bench/bench_kernels" --json --quick \
    --out "$repo/build/BENCH_kernels.json" --alloc-budget 0 --simd-floor 1.5
fi

if [ "$run_perf" = "1" ]; then
  echo "== perf smoke: bench_kernels --json --quick (zero-allocation + SIMD floor + verify cost) =="
  # Fails if any gated kernel (hz_add, the ring collective) mints a heap
  # block per op in steady state, if the dispatched SIMD level loses its
  # speedup floor over scalar, or if per-round ABFT verification costs more
  # than 5% of the modeled 512-rank x 8 MiB allreduce; see
  # docs/ANALYSIS.md "Performance architecture" and "Integrity model".
  cmake --build "$repo/build" -j "$jobs" --target bench_kernels
  "$repo/build/bench/bench_kernels" --json --quick \
    --out "$repo/build/BENCH_kernels.json" --alloc-budget 0 --simd-floor 1.5 \
    --verify-overhead 5
  echo "== perf smoke: allreduce algorithm-selection gates =="
  # Modeled 512-node x 8-ranks/node sweep: the hierarchical two-level
  # schedule must beat the flat compressed ring in the latency regime, and
  # the size-based selector must never lose to the worst static choice.
  cmake --build "$repo/build" -j "$jobs" --target bench_ablation_allreduce_algos
  "$repo/build/bench/bench_ablation_allreduce_algos" --json --quick \
    --out "$repo/build/BENCH_allreduce_algos.json"
  echo "== perf smoke: multi-tenant scheduler throughput gate =="
  # Concurrent admission of the mixed workload must beat the serialized
  # baseline by >= 1.3x (the ISSUE's scheduler gate); --quick models 64
  # nodes instead of 512 so the smoke stays seconds-fast.
  cmake --build "$repo/build" -j "$jobs" --target bench_sched
  "$repo/build/bench/bench_sched" --json --quick \
    --out "$repo/build/BENCH_sched.json"
  echo "== perf smoke: end-to-end benchmark (bench/e2e/run.sh --smoke) =="
  # Every bench/e2e workload for 1 s, timed and traced twice: outputs
  # correct, exact counts and modeled times repeat, and the traced rebuild
  # is byte-identical to run_collective.
  "$repo/bench/e2e/run.sh" --smoke
fi

if [ "$run_cov" = "1" ]; then
  echo "== coverage: Debug --coverage build + every ctest tier =="
  cmake -B "$repo/build-cov" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
    -DHZCCL_BUILD_BENCH=OFF -DHZCCL_BUILD_EXAMPLES=OFF
  cmake --build "$repo/build-cov" -j "$jobs"
  (cd "$repo/build-cov" && ctest -j "$jobs" --output-on-failure)
  baseline=$(grep -v '^#' "$repo/tools/coverage_baseline.txt" | head -n 1)
  if command -v gcovr >/dev/null 2>&1; then
    # CI runners install gcovr for the nicer per-line HTML; the gate is the
    # same baseline either way.
    gcovr --root "$repo" --filter "$repo/src" --filter "$repo/include" \
      "$repo/build-cov" \
      --html --html-details -o "$repo/build-cov/coverage.html" \
      --print-summary --fail-under-line "$baseline"
  else
    # Hermetic fallback: plain gcov --json-format through the stdlib driver.
    python3 "$repo/tools/coverage.py" --build-dir "$repo/build-cov" \
      --root "$repo" --baseline "$repo/tools/coverage_baseline.txt" \
      --html-out "$repo/build-cov/coverage.html"
  fi
fi

if [ "$run_tsan" = "1" ]; then
  echo "== tier 3: ThreadSanitizer concurrency tier =="
  configure_tsan
  cmake --build "$repo/build-tsan" -j "$jobs" \
    --target simmpi_test collectives_test allgather_test movement_test \
             faults_test homomorphic_test
  for t in simmpi_test collectives_test allgather_test movement_test \
           faults_test homomorphic_test; do
    echo "-- tsan: $t"
    TSAN_OPTIONS="$tsan_env" "$repo/build-tsan/tests/$t"
  done
fi

echo "== all requested checks passed =="
