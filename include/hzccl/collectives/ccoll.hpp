// C-Coll-style compression-accelerated collectives: the state-of-the-art
// baseline the paper improves on (§III-A, Fig 5 top).
//
// Every round of the reduce-scatter ring runs the full DOC workflow:
// compress the block to send (CPR), decompress the received block (DPR),
// reduce over floats (CPT).  The allgather compresses once and decompresses
// the N-1 received chunks at the end.  Per-operation cost totals therefore
// match the paper's T^RS_C-Coll = (N-1)(CPR + DPR + CPT) and
// T^AG_C-Coll = CPR + (N-1)DPR.  The DOC reduce-scatter on its own runs
// through run_collective and the engine only (core/dispatch.hpp's run_stack).
#pragma once

#include <span>
#include <vector>

#include "hzccl/collectives/common.hpp"

namespace hzccl::coll {

/// Compression-enabled ring allgather: compress own block once, move
/// compressed bytes N-1 hops, decompress everything at the end.
void ccoll_allgather(simmpi::Comm& comm, std::span<const float> my_block,
                     size_t total_elements, std::vector<float>& out_full,
                     const CollectiveConfig& config);

/// C-Coll allreduce = DOC reduce-scatter + compressed allgather.
void ccoll_allreduce(simmpi::Comm& comm, std::span<const float> input,
                     std::vector<float>& out_full, const CollectiveConfig& config);

}  // namespace hzccl::coll
