// The traditional decompression-operation-compression (DOC) workflow the
// paper identifies as the C-Coll bottleneck (§III-A): fully decompress both
// operands, operate on floats, recompress the result.  Every call
// re-quantizes, so DOC accrues one extra half-quantum of error per hop —
// exactly the accuracy deficit Tables VI/VII attribute to the baseline.
#pragma once

#include "hzccl/compressor/format.hpp"
#include "hzccl/compressor/fz_light.hpp"

namespace hzccl {

/// Timing breakdown of one DOC reduction, for the throughput comparisons.
struct DocBreakdown {
  double decompress_seconds = 0.0;
  double compute_seconds = 0.0;
  double compress_seconds = 0.0;
  double total() const { return decompress_seconds + compute_seconds + compress_seconds; }
};

/// sum(a, b) through DOC.  Layouts must match (same guarantee the
/// homomorphic path requires, so comparisons are apples-to-apples).
[[nodiscard]] CompressedBuffer doc_add(const CompressedBuffer& a, const CompressedBuffer& b,
                         DocBreakdown* breakdown = nullptr, int num_threads = 0);

}  // namespace hzccl
