// Ultra-fast fixed-length encoding (paper §III-B3).
//
// A block of n signed integer residuals is stored as:
//   [u8 code_length c]                          c = bits of the largest |r|
//   if c > 0:
//     [sign bits:  ceil(n/8) bytes]             1 = negative
//     [byte planes: (c/8) planes of n bytes]    full bytes of each magnitude
//     [remainder:  ceil(n*(c%8)/8) bytes]       high (c%8) bits, packed
//
// The byte-plane + remainder split is the paper's scheme: complete bytes of
// the unsigned magnitudes are stored with plain shifts (vectorizable), then
// the remaining x = c%8 bits of every element are packed by a specialized
// ultra_fast_bit_shifting_x routine (x in 1..7) that emits exactly x bytes
// per 8 elements.
//
// c == 0 marks a constant (all-zero-residual) block with no further bytes —
// the case hZ-dynamic's pipeline 1 reduces to a single byte write.
//
// encode_block_prepared and decode_block check their arguments, then run
// the whole block — sign plane, byte planes and remainder — through one
// kernel-table call (kernels::KernelTable::encode_block / decode_block),
// which picks the widest byte-identical variant the host supports.  The
// chunk walkers do not go through these per-block entry points: fZ-light
// decompression, the digest verify walk and hZ-dynamic's combine each hand
// a whole chunk to one chunk slot (kernels::KernelTable::decompress_chunk,
// fold_chunk, combine_chunk), which validates every block the way
// decode_block and peek_block_size do and decodes, folds or merges it
// without storing its residuals; the walker turns the slot's status into
// the exception these entry points would have raised.
//
// c == 0xFF marks a *raw* block: the n original floats stored verbatim
// (little-endian), the fallback encoders use for values the quantized
// residual domain cannot carry (NaN/Inf, denormal-heavy blocks).  Raw blocks
// sit outside the prediction chain: the running quantized value is neither
// advanced by them on encode nor consumed by them on decode.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hzccl {

inline constexpr int kMaxCodeLength = 31;

/// Code-length byte value marking a raw (verbatim float) block.
inline constexpr int kRawBlockMarker = 0xFF;

/// Bits needed to represent `max_magnitude` (0 for 0).
inline int code_length_for(uint32_t max_magnitude) {
  return max_magnitude == 0 ? 0 : 32 - __builtin_clz(max_magnitude);
}

/// Encoded byte size of a block of `n` residuals at code length `c`
/// (including the code-length byte itself).
inline size_t encoded_block_size(int c, size_t n) {
  if (c == 0) return 1;
  const size_t sign_bytes = (n + 7) / 8;
  const size_t plane_bytes = static_cast<size_t>(c / 8) * n;
  const size_t rem_bytes = (n * static_cast<size_t>(c % 8) + 7) / 8;
  return 1 + sign_bytes + plane_bytes + rem_bytes;
}

/// Worst-case encoded size for a block of n elements (c = 31).  A raw block
/// (1 + 4n bytes) never exceeds this: ceil(n/8) + ceil(7n/8) >= n, so the
/// c = 31 layout is the global worst case and existing capacity math holds.
inline size_t max_encoded_block_size(size_t n) {
  return encoded_block_size(kMaxCodeLength, n);
}

/// Encoded byte size of a raw block of n floats (marker byte + payload).
inline size_t raw_block_size(size_t n) { return 1 + 4 * n; }

// ---------------------------------------------------------------------------
// Block codec.
// ---------------------------------------------------------------------------

/// Encode `n` residuals into [out, out_end); returns the first byte past the
/// encoded block.  Throws CapacityError if the encoded block would not fit —
/// the capacity contract every encoder write path goes through, so a
/// mis-sized buffer (or a malformed operand smuggling oversized payload into
/// a homomorphic operator) can never scribble past the destination.
uint8_t* encode_block(const int32_t* residuals, size_t n, uint8_t* out,
                      const uint8_t* out_end);

/// Encode when the caller already knows the code length and magnitudes
/// (the compressor's fused path and hZ-dynamic's pipeline 4 both have them).
/// Same [out, out_end) capacity contract as encode_block; a code length
/// outside 0..31 throws QuantizationRangeError.
uint8_t* encode_block_prepared(const uint32_t* magnitudes, const uint32_t* sign_bits, size_t n,
                               int code_len, uint8_t* out, const uint8_t* out_end);

/// Decode one block of `n` residuals from [src, end); returns the first byte
/// past the block.  Throws ParseError if the block runs past `end`, the
/// code length is out of range, or the block is a raw block (raw blocks
/// carry floats, not residuals — callers that accept them must branch on
/// the kRawBlockMarker byte before decoding).
const uint8_t* decode_block(const uint8_t* src, const uint8_t* end, size_t n,
                            int32_t* residuals);

/// Store `n` floats verbatim as a raw block; same [out, out_end) capacity
/// contract as encode_block.
uint8_t* encode_raw_block(const float* values, size_t n, uint8_t* out,
                          const uint8_t* out_end);

/// Decode one raw block from [src, end) into `values`; returns the first
/// byte past the block.  Throws ParseError when `src` does not start a raw
/// block or the payload is truncated.
const uint8_t* decode_raw_block(const uint8_t* src, const uint8_t* end, size_t n,
                                float* values);

/// Byte size of the encoded block starting at `src` (bounds-checked peek;
/// handles residual, constant and raw blocks).
size_t peek_block_size(const uint8_t* src, const uint8_t* end, size_t n);

}  // namespace hzccl
