// Closed-form round-based model for ring collectives at scale.
//
// The functional simmpi runtime is exact but allocates per rank, so the
// 512-node × 646 MB scalability figures (paper Figs 10/12) would need
// hundreds of GB.  RoundSim replaces the functional run with the analytic
// per-round costs of the same ring algorithms, fed by a *measured*
// CompressionProfile: how the compression ratio and hZ-dynamic pipeline mix
// evolve as more operands accumulate into a block.  The profile is measured
// with the real compressor on representative data; only the extrapolation
// across N and message size is analytic.  Tests cross-validate RoundSim
// against full functional runs at small N.
#pragma once

#include <cstddef>
#include <vector>

#include "hzccl/collectives/common.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/simmpi/costmodel.hpp"
#include "hzccl/simmpi/netmodel.hpp"

namespace hzccl::cluster {

/// Measured compression behaviour of one dataset as reduction depth grows.
struct CompressionProfile {
  size_t sample_elements = 0;      ///< elements of the representative block
  std::vector<double> ratio;       ///< ratio[k] = ratio of a sum of k+1 fields
  std::vector<HzPipelineStats> hz_stats;  ///< hz_stats[k] = add field k+2 at depth k+1
  uint32_t block_len = 32;

  /// Ratio of a block holding `depth` accumulated operands (clamped/interp).
  double ratio_at_depth(int depth) const;

  /// hZ-dynamic stats for one add at `depth`, scaled to `elements`.
  HzPipelineStats stats_at_depth(int depth, size_t elements) const;

  /// Measure on `fields` (one per simulated contributor; reused cyclically
  /// for depths beyond the supplied count).
  static CompressionProfile measure(const std::vector<std::vector<float>>& fields,
                                    const FzParams& params, int max_depth);
};

/// Modeled wall time of one collective at arbitrary scale.
struct ModelResult {
  double seconds = 0.0;
  double mpi_seconds = 0.0;
  double cpr_seconds = 0.0;
  double dpr_seconds = 0.0;
  double cpt_seconds = 0.0;
  double hpr_seconds = 0.0;
  double vrf_seconds = 0.0;  ///< ABFT digest verification (zero when verify is off)
};

/// Model `kernel` running `op` over `nranks` ranks with `total_bytes` of
/// float data per rank.  Inter-node transfers are priced at the fabric's
/// congestion for `net.congestion_flows(nranks)` flows, so a hierarchical
/// `net.topo` automatically relieves congestion (flat topologies are
/// unchanged: flows == ranks).
/// `verify` prices the digest walks the functional collectives charge (at
/// the profile's compressed size for each round's depth): a raw exchange's
/// two and every received C-Coll stream under either policy; under
/// kPerRound each received hZ stream and combine output; under either, each
/// hZ block at its final decode.  The charge lands in `vrf_seconds` and in
/// the `seconds` total, so the verify-overhead bench gate is
/// `seconds(round) / seconds(off) - 1`.
ModelResult model_collective(Kernel kernel, Op op, int nranks, size_t total_bytes,
                             const CompressionProfile& profile, const simmpi::NetModel& net,
                             const simmpi::CostModel& cost,
                             coll::VerifyPolicy verify = coll::VerifyPolicy::kOff);

/// Model one Allreduce of `total_bytes` per rank under an explicit exchange
/// schedule: the flat ring, recursive doubling (log2 P whole-vector
/// exchanges), Rabenseifner (halving reduce-scatter + doubling allgather;
/// non-power-of-two rank counts price as the ring, matching the functional
/// fallback), or the two-level hierarchy (serial intra-node raw gather to
/// the node leader, compressed ring over one leader per node at node-count
/// congestion, intra-node broadcast).  `nranks` is the total rank count;
/// the node grouping comes from `net.topo`.  The C-Coll kernels always run
/// the ring, so every schedule prices as the ring for them.  This closed
/// form is what autotune's size/topology algorithm selector ranks.
ModelResult model_allreduce_algo(Kernel kernel, coll::AllreduceAlgo algo, int nranks,
                                 size_t total_bytes, const CompressionProfile& profile,
                                 const simmpi::NetModel& net, const simmpi::CostModel& cost,
                                 coll::VerifyPolicy verify = coll::VerifyPolicy::kOff);

}  // namespace hzccl::cluster
