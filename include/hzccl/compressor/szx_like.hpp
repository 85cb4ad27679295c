// SZx-style constant-block compressor (paper §II): the "fastest CPU
// compressor" reference point whose *constant block design* — collapsing
// every sufficiently flat block to a single mean value — buys speed at the
// cost of reconstruction quality on smooth-but-not-constant data.  The
// paper cites exactly this quality degradation (via cuSZp's analysis) as
// the reason fZ-light keeps cuSZp's quantization pipeline instead.
//
// This implementation keeps SZx's two block classes:
//  * constant block:      max - min <= 2*eb  ->  store the midrange (4 B);
//                         every element reconstructs to the same value.
//  * non-constant block:  stored as IEEE floats truncated to the fewest
//                         leading bytes that still meet the error bound for
//                         the block's value magnitude (SZx's
//                         "insignificant-bit elimination").
//
// Wire layout: [FzHeader magic=HZSX, num_chunks = number of blocks]
//              [u8 block_meta[num_blocks]]  0 = constant,
//                                           1..4 = kept bytes per float
//              [payload: 4 B midrange, or n * meta truncated big-end bytes]
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hzccl/compressor/format.hpp"

namespace hzccl {

inline constexpr uint32_t kSzxMagic = 0x485A5358;  // "HZSX"

struct SzxParams {
  double abs_error_bound = 1e-4;
  uint32_t block_len = 32;  ///< elements per block (<= 512)
  int num_threads = 0;
};

struct SzxView {
  FzHeader header;
  std::span<const uint8_t> block_meta;
  std::span<const uint8_t> payload;

  size_t num_elements() const { return header.num_elements; }
  uint32_t block_len() const { return header.block_len; }
  uint32_t num_blocks() const { return header.num_chunks; }
  double error_bound() const { return header.error_bound; }
};

/// Throws FormatError on a header with kFlagHasDigests set: the ABFT digest
/// table is fZ-light's (docs/FORMAT.md).
[[nodiscard]] SzxView parse_szx(std::span<const uint8_t> bytes);

[[nodiscard]] CompressedBuffer szx_compress(std::span<const float> data, const SzxParams& params,
                                            BufferPool* pool = nullptr);

void szx_decompress(const CompressedBuffer& compressed, std::span<float> out,
                    int num_threads = 0);
std::vector<float> szx_decompress(const CompressedBuffer& compressed, int num_threads = 0);

}  // namespace hzccl
