#!/usr/bin/env bash
# hzccl-e2e: build the benchmark and run it.
#
#   bench/e2e/run.sh [--seed S] [--seconds T] [--out DIR]
#       every workload, each as two processes: the timed pass (--trace 0,
#       end-to-end metrics) and the traced pass (--trace 1, per-layer metrics)
#   bench/e2e/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
#       one workload, one process; the last stdout line is the JSON result
#   bench/e2e/run.sh --smoke
#       every workload for 1 s: a timed pass, and two traced passes with the
#       same seed.  Outputs correct, end-to-end values present, exact counts
#       and modeled_ms repeat, the traced rebuild is byte-identical to
#       run_collective.  Exit code only.
#
# T defaults to run_seconds in BENCHMARK.json at the repository root.
# Builds into build-e2e/ at the repository root (build output goes to
# stderr).  Exits non-zero when the build fails or any output is wrong.
set -u

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

workload="" seed=1 seconds="" trace="" out="" smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")" || exit 1
fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 || exit 1
cmake --build "$build" --target hzccl_e2e -j "$(nproc)" >&2 || exit 1
bin="$build/hzccl_e2e"

# One OpenMP thread per rank thread: four rank threads fill the four cores.
export OMP_NUM_THREADS=1
revision="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ "$revision" != unknown ] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
  revision="$revision-dirty"
fi

run_one() {  # workload seed seconds trace [out]
  local args=(--workload "$1" --seed "$2" --seconds "$3" --trace "$4" --revision "$revision")
  [ "$4" = 1 ] && args+=(--trace-file "$build/e2e_trace_$1.json")
  [ -n "${5:-}" ] && args+=(--out "$5")
  "$bin" "${args[@]}"
}

if [ "$smoke" = 1 ]; then
  dir="$build/smoke"
  rm -rf "$dir"
  for w in $("$bin" --list); do
    for t in 0 1 1; do run_one "$w" 1 1 "$t" "$dir" > /dev/null || exit 1; done
  done
  exec python3 "$here/compare.py" --smoke "$dir"
fi

if [ -n "$workload" ]; then
  run_one "$workload" "$seed" "$seconds" "${trace:-0}" "$out"
  exit $?
fi

status=0
for w in $("$bin" --list); do
  for t in ${trace:-0 1}; do
    run_one "$w" "$seed" "$seconds" "$t" "$out" || status=1
  done
done
exit $status
