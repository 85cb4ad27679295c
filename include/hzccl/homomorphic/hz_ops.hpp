// Extended homomorphic operations beyond the paper's 'sum' example
// (§III-B4 notes the principles "are applicable to other reduction
// operations"; §V lists tailoring homomorphic algorithms as future work).
//
// All of these operate directly on fZ-light streams with no quantization
// step, so like hz_add they introduce no error beyond the operands' bounds:
//  * hz_scale    — multiply by an integer: residuals and outliers scale
//                  linearly, so the result decompresses to exactly k * x'.
//  * hz_negate   — specialization of scale(-1) that only rewrites sign-bit
//                  planes (a byte-level XOR), never touching magnitudes:
//                  0 - a through hz_sub's chunk combine.
//  * hz_sub      — a + (-b), fused: the copy pipelines flip signs on the
//                  fly instead of materializing -b.
//  * hz_add_many — balanced pairwise reduction of N operands, minimizing
//                  the depth at which residual magnitudes grow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hzccl/compressor/format.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"

namespace hzccl {

/// result = factor * a, exactly, in the compressed domain.
/// factor may be negative; factor == 0 yields an all-constant-zero stream.
/// Throws HomomorphicOverflowError if any scaled residual or outlier leaves
/// the 31-bit magnitude domain.  All operators here accept an optional
/// BufferPool: the result then lands in recycled pooled storage
/// (byte-identical output; release it back when done) and warm steady-state
/// calls are allocation-free.
[[nodiscard]] CompressedBuffer hz_scale(const CompressedBuffer& a, int32_t factor, int num_threads = 0,
                          BufferPool* pool = nullptr);
[[nodiscard]] CompressedBuffer hz_scale(const FzView& a, int32_t factor, int num_threads = 0,
                          BufferPool* pool = nullptr);

/// result = -a.  Only sign planes are rewritten: cost is a stream copy.
[[nodiscard]] CompressedBuffer hz_negate(const CompressedBuffer& a, int num_threads = 0,
                           BufferPool* pool = nullptr);
[[nodiscard]] CompressedBuffer hz_negate(const FzView& a, int num_threads = 0,
                           BufferPool* pool = nullptr);

/// result = a - b, exactly, in the compressed domain (same pipeline
/// structure and stats semantics as hz_add).
[[nodiscard]] CompressedBuffer hz_sub(const CompressedBuffer& a, const CompressedBuffer& b,
                        HzPipelineStats* stats = nullptr, int num_threads = 0,
                        BufferPool* pool = nullptr);

/// Balanced pairwise sum of all operands.  Compared with a sequential fold,
/// the pairwise tree keeps intermediate residual magnitudes ~log2(N) bits
/// above the operands' instead of up to N times larger, postponing the
/// overflow guard by many doublings.  Partial sums live in pooled storage
/// and ping-pong through the pool as the tree collapses: each level's
/// consumed operands are released and immediately recycled into the next
/// level's outputs, so the whole reduction holds at most ~2 resident
/// buffers per tree level in flight and allocates nothing once warm.
[[nodiscard]] CompressedBuffer hz_add_many(std::span<const CompressedBuffer> operands,
                             HzPipelineStats* stats = nullptr, int num_threads = 0,
                             BufferPool* pool = nullptr);

}  // namespace hzccl
