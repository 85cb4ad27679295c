// hZCCL: the co-designed homomorphic-compression-accelerated collectives —
// the paper's primary contribution (§III-C, Fig 5 bottom).
//
// Reduce-scatter: each rank compresses all N of its blocks once up front,
// then every ring round reduces compressed blocks *directly* with hZ-dynamic
// (HPR) — no per-round decompression or recompression.  Only the final owned
// block is decompressed.  Cost: (N)CPR + (1)DPR + (N-1)HPR.
//
// Allreduce: the reduce-scatter stage skips even that final decompression
// and hands its compressed owned block straight to the allgather stage,
// which moves compressed chunks and decompresses everything once at the end.
// Cost: (N)CPR + (N)DPR* + (N-1)HPR, where the paper books N-1 decompressions
// because it folds the owned block's decompression elsewhere; we decompress
// all N blocks explicitly and note the one-block delta in EXPERIMENTS.md.
#pragma once

#include <span>
#include <vector>

#include "hzccl/collectives/common.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"

namespace hzccl::coll {

/// Homomorphic ring reduce-scatter; out_block holds the reduced owned block.
/// If `pipeline_stats` is non-null, the hZ-dynamic selection counters of all
/// rounds are accumulated into it.
void hzccl_reduce_scatter(simmpi::Comm& comm, std::span<const float> input,
                          std::vector<float>& out_block, const CollectiveConfig& config,
                          HzPipelineStats* pipeline_stats = nullptr);

/// The allreduce-fused variant: returns the reduced owned block still
/// compressed (the final-round DPR the co-design eliminates).
[[nodiscard]] CompressedBuffer hzccl_reduce_scatter_compressed(simmpi::Comm& comm,
                                                 std::span<const float> input,
                                                 const CollectiveConfig& config,
                                                 HzPipelineStats* pipeline_stats = nullptr);

/// Allgather over already-compressed chunks: exchanges compressed bytes and
/// decompresses the gathered blocks at the end.
void hzccl_allgather_compressed(simmpi::Comm& comm, const CompressedBuffer& my_block,
                                size_t total_elements, std::vector<float>& out_full,
                                const CollectiveConfig& config);

/// hZCCL allreduce: fused reduce-scatter (no final DPR) + compressed-domain
/// allgather (no leading CPR).
void hzccl_allreduce(simmpi::Comm& comm, std::span<const float> input,
                     std::vector<float>& out_full, const CollectiveConfig& config,
                     HzPipelineStats* pipeline_stats = nullptr);

// -- Alternative allreduce schedules over the same fZ-light streams. ---------
// The wire format never changes across algorithms; the schedules below trade
// bandwidth optimality for latency (fewer, larger exchanges) or exploit the
// node hierarchy.  fZ-light quantizes each element independently and hz_add
// sums quantized integers exactly, so the recursive-doubling and
// Rabenseifner variants produce results *bit-identical* to the flat ring for
// the same error bound (the two-level variant re-quantizes the node-local
// float sums, so it is differential-equal, not bit-equal — and tighter:
// error scales with node count, not rank count).

/// Compressed recursive doubling: each rank compresses its whole vector as
/// one stream; log2(P) exchanges reduce whole streams with hz_add.  Non
/// power-of-two sizes fold onto p2 active ranks first (MPICH schedule).
/// Latency-optimal — wins for small messages where the ring's P-1 hops
/// dominate.
void hzccl_allreduce_recursive_doubling(simmpi::Comm& comm, std::span<const float> input,
                                        std::vector<float>& out_full,
                                        const CollectiveConfig& config,
                                        HzPipelineStats* pipeline_stats = nullptr);

// The Rabenseifner and two-level schedules run through run_collective and
// the engine only (core/dispatch.hpp's run_stack).

}  // namespace hzccl::coll
