// fZ-light: the paper's ultra-fast error-bounded lossy compressor for CPU
// architectures (§III-B2/B3).
//
// Pipeline: multi-layer partitioning (contiguous per-thread chunks, then
// small blocks) -> one compress_chunk kernel-slot call per chunk, which
// runs the fused pass of each block (raw-fallback classification,
// quantization and 1-D Lorenzo prediction) and its ultra-fast fixed-length
// encoding, folds the ABFT digest, and writes straight into the chunk's
// arena scratch region; the stream is assembled from the bytes each chunk
// keeps, with one copy.  One outlier (the first quantized value) is
// stored per *chunk*, versus one per block in cuSZp/ompSZp — the source of
// the compression-ratio advantage in Table III.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hzccl/compressor/format.hpp"

namespace hzccl {

/// Compression parameters.  Layout-affecting fields (everything except
/// num_threads) must match between streams that will be combined
/// homomorphically; collectives guarantee this by sharing one FzParams.
struct FzParams {
  double abs_error_bound = 1e-4;
  uint32_t block_len = 32;  ///< elements per small block (<= 512)
  uint32_t num_chunks = 0;  ///< thread chunks; 0 = derive from element count
  int num_threads = 0;      ///< OpenMP threads; 0 = runtime default
  /// Emit the per-chunk ABFT digest table (kFlagHasDigests): a linear
  /// checksum over the quantized chain that the homomorphic operators fold
  /// algebraically and verifiers recheck without decompressing to floats.
  /// Does not affect layout compatibility (digests ride the preamble, not
  /// the block grid), but both operands of an hz op must carry digests for
  /// the result to keep them.
  bool emit_digests = false;

  /// The deterministic auto-chunking rule used when num_chunks == 0: enough
  /// chunks to feed a socket's threads, but never chunks smaller than a few
  /// blocks.  Depends only on the element count so two ranks compressing
  /// equal-sized blocks always agree on the layout.
  static uint32_t auto_chunks(size_t num_elements, uint32_t block_len);

  uint32_t resolved_chunks(size_t num_elements) const {
    return num_chunks != 0 ? num_chunks : auto_chunks(num_elements, block_len);
  }
};

/// Compress a float field.  Throws QuantizationRangeError if the data cannot
/// be quantized under the bound, Error on invalid parameters.  With a `pool`
/// the result's byte storage is recycled pooled memory (byte-identical
/// output; the caller releases the stream back when done) and a warm call
/// performs no heap allocation.
[[nodiscard]] CompressedBuffer fz_compress(std::span<const float> data, const FzParams& params,
                                           BufferPool* pool = nullptr);

/// Decompress into a caller-provided buffer of exactly the original size.
void fz_decompress(const CompressedBuffer& compressed, std::span<float> out,
                   int num_threads = 0);
void fz_decompress(const FzView& view, std::span<float> out, int num_threads = 0);

/// Convenience allocating variant.
std::vector<float> fz_decompress(const CompressedBuffer& compressed, int num_threads = 0);

/// Partial decompression of the element range [begin, end) into `out`
/// (sized end - begin).  The chunked layout gives chunk-granular random
/// access: only chunks overlapping the range are decoded, each from its own
/// outlier, so the cost is O(touched chunks), not O(stream).
void fz_decompress_range(const FzView& view, size_t begin, size_t end, std::span<float> out,
                         int num_threads = 0);
void fz_decompress_range(const CompressedBuffer& compressed, size_t begin, size_t end,
                         std::span<float> out, int num_threads = 0);

/// Outcome of an ABFT digest verification pass.
struct DigestCheck {
  bool checked = false;  ///< the stream carried digests and they were rechecked
  bool ok = true;        ///< every chunk's recomputed digest matched
  uint32_t first_bad_chunk = 0;  ///< lowest mismatching chunk when !ok
};

/// Recompute every chunk's digest from the encoded residual chain (integer
/// domain only — no float conversion) and compare against the stored table.
/// Streams without digests return {checked = false, ok = true}.  Cost is one
/// decode pass; allocation-free (stack block scratch), parallel over chunks.
[[nodiscard]] DigestCheck fz_verify_digests(const FzView& view, int num_threads = 0);
[[nodiscard]] DigestCheck fz_verify_digests(const CompressedBuffer& compressed,
                                            int num_threads = 0);

}  // namespace hzccl
