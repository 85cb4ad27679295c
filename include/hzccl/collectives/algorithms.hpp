// Additional Allreduce algorithms for the uncompressed baseline stack.
//
// MPICH (the paper's "original MPI" baseline) picks its Allreduce algorithm
// by message size: recursive doubling for short messages (log2 P latency
// terms), Rabenseifner's reduce-scatter + allgather for long ones, with the
// ring as the bandwidth-optimal large-message specialization this library's
// main stacks use.  Implementing the other two makes the baseline honest
// across the whole message-size axis and enables the algorithm-crossover
// ablation.
#pragma once

#include <span>
#include <vector>

#include "hzccl/collectives/common.hpp"

namespace hzccl::coll {

/// Recursive-doubling Allreduce (any rank count; non-powers-of-two fold the
/// remainder ranks onto partners first, MPICH-style).  Latency ~ alpha *
/// ceil(log2 P), bandwidth ~ full vector per step: best for small messages.
void raw_allreduce_recursive_doubling(simmpi::Comm& comm, std::span<const float> input,
                                      std::vector<float>& out_full,
                                      const CollectiveConfig& config);

/// Rabenseifner's Allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather.  Power-of-two rank counts only; other
/// counts fall back to the ring implementation.  Bandwidth-optimal like the
/// ring but with log2 P latency terms.
void raw_allreduce_rabenseifner(simmpi::Comm& comm, std::span<const float> input,
                                std::vector<float>& out_full, const CollectiveConfig& config);

// The two-level schedule runs through run_collective and the engine only
// (core/dispatch.hpp's run_stack).

}  // namespace hzccl::coll
