// Fused quantization + 1-D Lorenzo prediction (paper §III-B2).
//
// Quantization is the sole source of bounded error in the whole stack:
// q = round(v / (2*eb)) reconstructs to q * 2*eb with |v - v'| <= eb.
// Prediction subtracts the previous quantized value, producing the small
// integer residuals the fixed-length encoder consumes.  Because prediction
// is linear over the quantized integers, residual streams add element-wise —
// the property that makes the homomorphic pipelines exact.
#pragma once

#include <cmath>
#include <cstdint>

#include "hzccl/compressor/format.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/raise.hpp"

namespace hzccl {

/// Precomputed quantization constants for one error bound.
struct Quantizer {
  double twice_eb = 0.0;
  double inv_twice_eb = 0.0;

  explicit Quantizer(double abs_error_bound) {
    if (!(abs_error_bound > 0.0)) {
      throw Error("error bound must be positive");
    }
    twice_eb = 2.0 * abs_error_bound;
    inv_twice_eb = 1.0 / twice_eb;
  }

  /// Quantize one value; throws QuantizationRangeError when the value cannot
  /// be represented in the 30-bit quantized domain under this bound.  The
  /// raise is an out-of-line cold exit — this runs per element on the hot
  /// compression path.
  HZCCL_HOT int32_t quantize(float v) const {
    const double scaled = static_cast<double>(v) * inv_twice_eb;
    // llrint honors round-to-nearest-even cheaply; the magnitude guard keeps
    // a later homomorphic addition from silently overflowing 31-bit residuals.
    const long long q = std::llrint(scaled);
    if (q > kMaxQuantMagnitude || q < -static_cast<long long>(kMaxQuantMagnitude)) {
      detail::raise_quant_range(
          "value/error-bound ratio exceeds the 30-bit quantization domain");
    }
    return static_cast<int32_t>(q);
  }

  /// Reconstruction of a quantized value.  The accumulator is 64-bit because
  /// homomorphically reduced streams can carry sums of many operands.
  float dequantize(int64_t q) const { return static_cast<float>(static_cast<double>(q) * twice_eb); }
};

/// Count a raw verdict of the fused block slot (kernels::RawVerdict, not
/// kNone) under the matching classify_raw_block reason.
inline void count_raw_block(kernels::RawVerdict verdict) {
  count_raw_block(verdict == kernels::RawVerdict::kNonFinite ? RawBlockReason::kNonFinite
                                                             : RawBlockReason::kDenormalHeavy);
}

}  // namespace hzccl
