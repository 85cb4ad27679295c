#include "hzccl/compressor/fixed_len.hpp"

#include <cstring>

#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"

namespace hzccl {

HZCCL_HOT uint8_t* encode_block_prepared(const uint32_t* magnitudes, const uint32_t* sign_bits, size_t n,
                               int code_len, uint8_t* out, const uint8_t* out_end) {
  if (out > out_end ||
      encoded_block_size(code_len, n) > static_cast<size_t>(out_end - out)) {
    detail::raise_capacity("encode_block: encoded block exceeds output capacity");
  }
  if (code_len < 0 || code_len > kMaxCodeLength) {
    detail::raise_quant_range("encode_block: code length outside 0..31");
  }
  *out++ = static_cast<uint8_t>(code_len);
  if (code_len == 0) return out;
  if (n > kernels::kMaxBlockValues) {
    detail::raise_error("encode_block: block length > 512 unsupported");
  }
  // Sign plane, byte planes and remainder plane in one table call.
  kernels::active().encode_block(magnitudes, sign_bits, n, code_len, out);
  return out + (encoded_block_size(code_len, n) - 1);
}

HZCCL_HOT uint8_t* encode_block(const int32_t* residuals, size_t n, uint8_t* out,
                      const uint8_t* out_end) {
  uint32_t mags[512];
  uint32_t signs[512];
  if (n > 512) detail::raise_error("encode_block: block length > 512 unsupported");

  uint32_t max_mag = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t r = residuals[i];
    const uint32_t neg = static_cast<uint32_t>(r < 0);
    const uint32_t mag = neg ? static_cast<uint32_t>(-static_cast<int64_t>(r))
                             : static_cast<uint32_t>(r);
    mags[i] = mag;
    signs[i] = neg;
    max_mag |= mag;
  }
  const int c = code_length_for(max_mag);
  if (c > kMaxCodeLength) {
    detail::raise_quant_range("residual magnitude exceeds 31 bits");
  }
  return encode_block_prepared(mags, signs, n, c, out, out_end);
}

namespace {

/// decode_block's checks on the block at src; returns its code length, 0
/// for a constant block (no payload to check).
HZCCL_HOT int checked_code_length(const uint8_t* src, const uint8_t* end, size_t n) {
  if (src >= end) detail::raise_parse("decode_block: empty input");
  const int c = *src++;
  if (c == 0) return 0;
  if (c == kRawBlockMarker) {
    detail::raise_parse("decode_block: raw block in a residual-only context");
  }
  if (c > kMaxCodeLength) detail::raise_parse("decode_block: bad code length");
  if (static_cast<size_t>(end - src) < encoded_block_size(c, n) - 1) {
    detail::raise_parse("decode_block: truncated block payload");
  }
  if (n > kernels::kMaxBlockValues) {
    detail::raise_parse("decode_block: block length > 512 unsupported");
  }
  return c;
}

/// checked_code_length for the fused decodes, which take residual payloads
/// only.
HZCCL_HOT int checked_payload_code_length(const uint8_t* src, const uint8_t* end, size_t n) {
  const int c = checked_code_length(src, end, n);
  if (c == 0) detail::raise_parse("decode_block: constant block in a fused decode");
  return c;
}

}  // namespace

HZCCL_HOT const uint8_t* decode_block(const uint8_t* src, const uint8_t* end, size_t n,
                            int32_t* residuals) {
  const int c = checked_code_length(src, end, n);
  if (c == 0) {
    std::memset(residuals, 0, n * sizeof(int32_t));
    return src + 1;
  }
  kernels::active().decode_block(src + 1, n, c, residuals);
  return src + encoded_block_size(c, n);
}

HZCCL_HOT const uint8_t* decode_block_dequantize(const uint8_t* src, const uint8_t* end, size_t n,
                                                 double twice_eb, int64_t* q, float* out) {
  const int c = checked_payload_code_length(src, end, n);
  *q = kernels::active().decode_dequantize(src + 1, n, c, *q, twice_eb, out);
  return src + encoded_block_size(c, n);
}

HZCCL_HOT const uint8_t* decode_block_fold(const uint8_t* src, const uint8_t* end, size_t n,
                                           uint64_t pos, int64_t* q, uint64_t* sum,
                                           uint64_t* wsum) {
  const int c = checked_payload_code_length(src, end, n);
  *q = kernels::active().decode_fold(src + 1, n, c, *q, pos, sum, wsum);
  return src + encoded_block_size(c, n);
}

HZCCL_HOT uint64_t decode_blocks_combine(const uint8_t* pa, const uint8_t* ea, const uint8_t* pb,
                                         const uint8_t* eb, size_t n, int sign_b, uint32_t* mags,
                                         uint32_t* signs) {
  const int ca = checked_payload_code_length(pa, ea, n);
  const int cb = checked_payload_code_length(pb, eb, n);
  return kernels::active().decode_combine(pa + 1, ca, pb + 1, cb, n, sign_b, mags, signs);
}

HZCCL_HOT uint8_t* encode_raw_block(const float* values, size_t n, uint8_t* out,
                          const uint8_t* out_end) {
  const size_t size = raw_block_size(n);
  if (out > out_end || size > static_cast<size_t>(out_end - out)) {
    detail::raise_capacity("encode_raw_block: raw block exceeds output capacity");
  }
  *out++ = static_cast<uint8_t>(kRawBlockMarker);
  std::memcpy(out, values, n * sizeof(float));
  return out + n * sizeof(float);
}

HZCCL_HOT const uint8_t* decode_raw_block(const uint8_t* src, const uint8_t* end, size_t n,
                                float* values) {
  if (src >= end) detail::raise_parse("decode_raw_block: empty input");
  if (*src != kRawBlockMarker) detail::raise_parse("decode_raw_block: not a raw block");
  const size_t size = raw_block_size(n);
  if (static_cast<size_t>(end - src) < size) {
    detail::raise_parse("decode_raw_block: truncated raw payload");
  }
  std::memcpy(values, src + 1, n * sizeof(float));
  return src + size;
}

HZCCL_HOT size_t peek_block_size(const uint8_t* src, const uint8_t* end, size_t n) {
  if (src >= end) detail::raise_parse("peek_block_size: empty input");
  const int c = *src;
  const size_t size = c == kRawBlockMarker ? raw_block_size(n) : encoded_block_size(c, n);
  if (c != kRawBlockMarker && c > kMaxCodeLength) {
    detail::raise_parse("peek_block_size: bad code length");
  }
  if (static_cast<size_t>(end - src) < size) {
    detail::raise_parse("peek_block_size: truncated block");
  }
  return size;
}

}  // namespace hzccl
