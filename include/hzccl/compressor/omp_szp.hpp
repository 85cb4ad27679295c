// ompSZp: the paper's baseline — cuSZp's GPU parallelism strategy realized
// on the CPU (paper Table II: "CPU version of cuSZp's parallelism strategy").
//
// Deliberate design differences from fZ-light, mirroring Figure 3:
//  * single-layer partitioning: the data is split straight into small blocks,
//    and each block stores its own outlier (4 bytes) — the per-block outlier
//    overhead behind Table III's compression-ratio gap;
//  * all-zero blocks are omitted entirely (one metadata byte), the cuSZp
//    feature that lets ompSZp win on zero-dominated data (the paper's
//    Sim.Set.1 @ REL 1e-2 exception);
//  * a two-phase compress with a *global size scan* between phases, standing
//    in for cuSZp's device-wide synchronization: phase 1 measures every
//    block, phase 2 re-quantizes and writes — doubling quantization work;
//  * GPU-style round-robin block->thread assignment in both phases, so
//    threads hop between distant blocks instead of streaming a contiguous
//    chunk (the memory-access pattern fZ-light fixes).
//
// Wire layout: [FzHeader magic=HZSP, num_chunks = number of blocks]
//              [u8 block_meta[num_blocks]]  0xFF = omitted zero block,
//                                           0xFE = raw fallback block,
//                                           else the block code length
//              [payload: per kept block, i32 outlier + encoded residuals;
//               per raw block, the n original floats verbatim]
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hzccl/compressor/format.hpp"

namespace hzccl {

inline constexpr uint8_t kSzpZeroBlock = 0xFF;

/// Metadata sentinel for the raw fallback: the block's floats are stored
/// verbatim because the quantized residual domain cannot carry them
/// (NaN/Inf, denormal-heavy blocks).
inline constexpr uint8_t kSzpRawBlock = 0xFE;

struct SzpParams {
  double abs_error_bound = 1e-4;
  uint32_t block_len = 32;  ///< elements per block (<= 512)
  int num_threads = 0;      ///< OpenMP threads; 0 = runtime default
};

/// Validated view into a serialized ompSZp stream.
struct SzpView {
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
[[nodiscard]] SzpView parse_szp(std::span<const uint8_t> bytes);

[[nodiscard]] CompressedBuffer szp_compress(std::span<const float> data, const SzpParams& params,
                                            BufferPool* pool = nullptr);

void szp_decompress(const CompressedBuffer& compressed, std::span<float> out,
                    int num_threads = 0);
std::vector<float> szp_decompress(const CompressedBuffer& compressed, int num_threads = 0);

}  // namespace hzccl
