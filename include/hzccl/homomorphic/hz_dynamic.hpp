// hZ-dynamic: the dynamic homomorphic compressor (paper §III-B4, Fig 4).
//
// Reduces two fZ-light streams *without decompressing them*, selecting the
// cheapest pipeline per block from the pair of code lengths (x, y):
//   pipeline 1: x=0 ∧ y=0  -> emit a single 0 code-length byte;
//   pipeline 2: x=0 ∧ y≠0  -> copy block y's bytes verbatim;
//   pipeline 3: x≠0 ∧ y=0  -> copy block x's bytes verbatim;
//   pipeline 4: x≠0 ∧ y≠0  -> inverse fixed-length decode both, add the
//                             integer residuals, re-encode (code length z).
//
// Correctness: prediction residuals are linear in the quantized values, and
// each chunk's outlier adds independently, so the output stream decompresses
// to exactly (qa + qb) * 2eb — no re-quantization, hence no error beyond the
// operands' inherent bounds (the sum of two eb-bounded values is 2eb-bounded
// by the triangle inequality, exactly as an exact float sum would be).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hzccl/compressor/format.hpp"

namespace hzccl {

/// Per-pipeline selection counters (Table V) plus the work volumes the cost
/// model charges for (copied bytes for P2/P3, touched elements for P4).
struct HzPipelineStats {
  uint64_t p1 = 0;
  uint64_t p2 = 0;
  uint64_t p3 = 0;
  uint64_t p4 = 0;
  uint64_t copied_bytes = 0;  ///< payload bytes moved by pipelines 2-3
  uint64_t p4_elements = 0;   ///< residuals decoded+added+re-encoded by pipeline 4
  uint64_t raw = 0;           ///< raw-fallback blocks combined in the float domain

  uint64_t blocks() const { return p1 + p2 + p3 + p4 + raw; }
  /// Share of blocks handled by pipeline 1..4, or 0 for the raw fallback.
  double percent(int pipeline) const;
  HzPipelineStats& operator+=(const HzPipelineStats& other);
};

/// sum(a, b) directly in the compressed domain.  Operand layouts must match
/// (LayoutMismatchError otherwise); residual or outlier overflow past 31 bits
/// raises HomomorphicOverflowError.  With a `pool`, the result lands in
/// recycled pooled storage (byte-identical output; the caller releases the
/// stream back when done) and a warm steady-state call is allocation-free.
[[nodiscard]] CompressedBuffer hz_add(const CompressedBuffer& a, const CompressedBuffer& b,
                        HzPipelineStats* stats = nullptr, int num_threads = 0,
                        BufferPool* pool = nullptr);
[[nodiscard]] CompressedBuffer hz_add(const FzView& a, const FzView& b, HzPipelineStats* stats = nullptr,
                        int num_threads = 0, BufferPool* pool = nullptr);

namespace detail {

/// result = a + sign * b (sign in {+1, -1}): the one combine behind hz_add,
/// hz_sub and hz_add_static's raw operands.  Operands without raw fallback
/// blocks take the four-pipeline dispatch above, and their digests fold as
/// digest(a) + sign * digest(b).  When either operand carries raw blocks
/// (kFlagHasRawBlocks), the combine tracks the absolute quantized chains of
/// both operands so raw blocks — which sit outside the chains — can be
/// combined in the float domain while residual blocks keep the exact
/// integer path; any chain drift a raw output block hides from the decoder
/// is folded into the next residual block's first residual, and digests are
/// recomputed from the tracked chain.
[[nodiscard]] CompressedBuffer hz_combine(const FzView& a, const FzView& b, int sign,
                                          HzPipelineStats* stats, int num_threads,
                                          BufferPool* pool);

/// Combine one chunk pair, a + sign * b (sign in {+1, -1}), of
/// `chunk_elems` values into [out, out + out_capacity) with the
/// four-pipeline dispatch above, in one combine_chunk kernel slot call; adds
/// the pipeline counts to `stats` and returns the bytes written.  Against a
/// constant chain (one zero code-length byte per block) and sign -1 it
/// negates b — constant blocks take pipeline 1, residual and raw blocks
/// pipeline 2's negated copy — which is how hz_negate runs.  The negated
/// copy flips the signs of zero residuals too: decoders read a sign only
/// where its magnitude is nonzero, so values are exact, but the stream is
/// no longer canonical.
size_t combine_chunk(std::span<const uint8_t> ca, std::span<const uint8_t> cb,
                     size_t chunk_elems, uint32_t block_len, int sign, uint8_t* out,
                     size_t out_capacity, HzPipelineStats& stats);

}  // namespace detail

}  // namespace hzccl
