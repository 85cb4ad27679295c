#!/usr/bin/env bash
# Project lint: memory-safety conventions the type system cannot enforce.
#
# Rules (see docs/ANALYSIS.md):
#   1. No reinterpret_cast in stream/transport code outside util/bytes.hpp —
#      byte<->value conversions go through ByteReader/ByteWriter or the
#      sanctioned helpers (bytes_of, float_bits, ...).
#   2. No wire-parse memcpy (memcpy(&dst, src, ...)) in the same scope —
#      parsing a struct or scalar out of received bytes must bounds-check
#      first, which is exactly what ByteReader::read<T> does.
#   3. Stream-returning APIs (CompressedBuffer/FzView/SzpView/SzxView/
#      FrameView) must be [[nodiscard]]: dropping one silently discards a
#      parse/compress result and usually hides a bug.
#   4. Header hygiene: every public header carries #pragma once and no
#      file-scope `using namespace`.
#   5. No second copy of a collective schedule: nothing under src/sched/ or
#      include/hzccl/sched/ calls the codec (fz_compress, fz_decompress),
#      the homomorphic combine (hz_add) or the ring step arithmetic
#      (rs_send_block, rs_recv_block, ag_send_block, ag_recv_block).  The
#      engine runs the bodies in include/hzccl/collectives/schedules.hpp.
#   6. One rank endpoint: nothing under src/sched/ or include/hzccl/sched/
#      advances a clock (advance, advance_to) or records on a rank's
#      recorder (record).  Every per-rank charge, span and counter goes
#      through simmpi::Endpoint, which both executors share; the
#      scheduler's own marker stream (sched_tracer) is exempt.
#   7. One data plane: nothing under src/sched/ or include/hzccl/sched/,
#      and nothing in src/simmpi/runtime.cpp or
#      include/hzccl/simmpi/runtime.hpp, frames, checks or rolls a fault die
#      itself (seal_frame, encode_frame_into, decode_frame, fault_roll).
#      Both executors drive the one link layer in src/simmpi/link.cpp.
#   8. Every collective is a Transport body: nothing under src/collectives/
#      calls simmpi::Comm's data-plane, clock or counter methods (send,
#      send_floats, recv, recv_into, recv_floats_into, refetch, charge,
#      clock, endpoint, integrity), BufferPool::local or the codec
#      (fz_compress, fz_decompress).  The blocking entry points run the
#      bodies in include/hzccl/collectives/schedules.hpp through
#      CommTransport.
#
# Exits nonzero listing every violation.  Runs clang-tidy (.clang-tidy) on
# top when the binary exists; the baseline image is GCC-only, so the text
# rules are the portable floor.
set -u
cd "$(dirname "$0")/.."

fail=0
report() {  # report <rule> <matches>
  if [ -n "$2" ]; then
    echo "LINT [$1] violations:"
    echo "$2" | sed 's/^/  /'
    fail=1
  fi
}

# Stream/transport scope: everything that touches wire bytes.
DECODE_SRC="src/compressor src/homomorphic src/collectives src/simmpi"
DECODE_INC="include/hzccl/compressor include/hzccl/homomorphic \
            include/hzccl/collectives include/hzccl/simmpi"

# Rule 1: reinterpret_cast outside the sanctioned substrate.
matches=$(grep -rn "reinterpret_cast" $DECODE_SRC $DECODE_INC 2>/dev/null || true)
report "no-reinterpret-cast" "$matches"

# Rule 2: wire-parse memcpy.  `memcpy(&x, ...)` pulls a typed value out of
# raw memory with no bounds check; ByteReader::read<T> is the replacement.
matches=$(grep -rnE "memcpy\(&" $DECODE_SRC $DECODE_INC 2>/dev/null || true)
report "no-wire-parse-memcpy" "$matches"

# Rule 3: [[nodiscard]] on stream- and result-returning APIs in public
# headers.  Beyond the wire views, dropping a trace/kernel/recovery result
# (Breakdown, CheckReport, ClockReport, JobResult) silently discards the
# outcome the caller asked for.
matches=$(grep -rnE "^\s*(CompressedBuffer|FzView|SzpView|SzxView|FrameView|Breakdown|CheckReport|ClockReport|JobResult)\s+[a-zA-Z_]+\(" \
  include/ 2>/dev/null || true)
report "nodiscard-stream-apis" "$matches"

# Rule 4a: #pragma once in every public header.
matches=$(grep -rLE "^#pragma once" include/ --include="*.hpp" 2>/dev/null || true)
report "pragma-once" "$matches"

# Rule 4b: no file-scope using-namespace in headers.
matches=$(grep -rnE "^\s*using namespace" include/ --include="*.hpp" 2>/dev/null || true)
report "no-using-namespace-in-headers" "$matches"

# Rule 5: the engine dispatches to the shared collective bodies and never
# carries its own copy of a schedule.
matches=$(grep -rnE "\b(fz_compress|fz_decompress|hz_add|rs_send_block|rs_recv_block|ag_send_block|ag_recv_block)\s*\(" \
  src/sched include/hzccl/sched 2>/dev/null || true)
report "no-schedule-copy-in-sched" "$matches"

# Rule 6: the engine keeps every rank's timeline in a simmpi::Endpoint and
# never charges a clock or records a rank span itself.
matches=$(grep -rnE "(\.|->)(advance|advance_to|record)\s*\(" src/sched include/hzccl/sched \
  2>/dev/null | grep -vE "sched_tracer\.record\s*\(" || true)
report "one-rank-endpoint" "$matches"

# Rule 7: both executors run one link layer (simmpi/link.hpp) and keep no
# framing, fault dice, window or recovery logic of their own.
matches=$(grep -rnE "\b(seal_frame|encode_frame_into|decode_frame|fault_roll)\s*\(" \
  src/sched include/hzccl/sched src/simmpi/runtime.cpp include/hzccl/simmpi/runtime.hpp \
  2>/dev/null || true)
report "one-data-plane" "$matches"

# Rule 8: the blocking collectives are run_to_completion wrappers; moving
# bytes, charging a clock or touching the codec happens in the bodies.
matches=$(grep -rnE "((\.|->)(send|send_floats|recv|recv_into|recv_floats_into|refetch|charge|clock|endpoint|integrity)|BufferPool::local|\b(fz_compress|fz_decompress))\s*\(" \
  src/collectives 2>/dev/null || true)
report "every-collective-a-transport-body" "$matches"

# Optional deep pass: clang-tidy with the checked-in .clang-tidy, if a
# compilation database and the tool are both available.
if command -v clang-tidy >/dev/null 2>&1 && [ -f build/compile_commands.json ]; then
  echo "lint: running clang-tidy"
  tidy_out=$(clang-tidy -p build --quiet $(git ls-files 'src/*.cpp') 2>&1)
  if [ $? -ne 0 ]; then
    echo "LINT [clang-tidy] violations:"
    echo "$tidy_out" | sed 's/^/  /'
    fail=1
  fi
else
  echo "lint: clang-tidy unavailable; text rules only"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
