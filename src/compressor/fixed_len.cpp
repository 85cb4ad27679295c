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

HZCCL_HOT const uint8_t* decode_block(const uint8_t* src, const uint8_t* end, size_t n,
                            int32_t* residuals) {
  if (src >= end) detail::raise_parse("decode_block: empty input");
  const int c = *src;
  if (c == 0) {
    std::memset(residuals, 0, n * sizeof(int32_t));
    return src + 1;
  }
  if (c == kRawBlockMarker) {
    detail::raise_parse("decode_block: raw block in a residual-only context");
  }
  if (c > kMaxCodeLength) detail::raise_parse("decode_block: bad code length");
  if (static_cast<size_t>(end - src) < encoded_block_size(c, n)) {
    detail::raise_parse("decode_block: truncated block payload");
  }
  if (n > kernels::kMaxBlockValues) {
    detail::raise_parse("decode_block: block length > 512 unsupported");
  }
  kernels::active().decode_block(src + 1, n, c, residuals);
  return src + encoded_block_size(c, n);
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
