// Collective-level run-time kernel selection — the paper's hZ-dynamic idea
// (pick the cheapest pipeline from the data at hand) lifted one level up:
// probe a sample of the rank's data, measure how it actually compresses and
// how its homomorphic adds behave, then predict every kernel's collective
// time with the RoundSim model and pick the winner.
//
// This answers the practical deployment question the paper leaves open
// (§V's "integrate hZCCL into applications"): plain MPI wins on
// incompressible or tiny data, C-Coll can win in narrow regimes, hZCCL wins
// whenever reduction stays out of pipeline 4 — and the right choice is a
// property of the data and fabric, not a constant.
#pragma once

#include <array>
#include <span>
#include <string>

#include "hzccl/core/hzccl.hpp"

namespace hzccl {

struct AutotuneResult {
  Kernel kernel = Kernel::kMpi;                ///< the predicted winner
  std::array<double, 5> predicted_seconds{};   ///< indexed by artifact kernel number
  double sample_ratio = 0.0;                   ///< measured compression ratio of the probe
  double pipeline4_percent = 0.0;              ///< measured P4 share of a probe self-add

  std::string summary() const;
};

/// Probe `sample` (a representative slice of one rank's input — a few
/// hundred KB is plenty) and choose the kernel for a collective of
/// `bytes_per_rank` per rank under `config`.
AutotuneResult choose_kernel(std::span<const float> sample, Op op, size_t bytes_per_rank,
                             const JobConfig& config);

/// Outcome of the size/topology Allreduce algorithm selection.
struct AlgoSelection {
  coll::AllreduceAlgo algo = coll::AllreduceAlgo::kRing;  ///< the predicted winner
  /// Modeled seconds per algorithm, indexed by coll::AllreduceAlgo ([0] —
  /// the kAuto slot — is unused and stays 0).
  std::array<double, coll::kNumAllreduceAlgos> predicted_seconds{};

  std::string summary() const;
};

/// Choose the Allreduce exchange schedule for `kernel` moving
/// `bytes_per_rank` per rank over `config.nranks` ranks grouped by
/// `config.net.topo`: rank ring / recursive-doubling / Rabenseifner /
/// two-level with the closed-form round model and pick the cheapest.
/// `sample` probes the data's compressibility exactly like choose_kernel
/// (it may be empty for the uncompressed kMpi kernel, where ratios are
/// irrelevant).
AlgoSelection choose_allreduce_algo(std::span<const float> sample, Kernel kernel,
                                    size_t bytes_per_rank, const JobConfig& config);

/// The schedule a job runs, resolved once per job so every rank, every
/// retry and both executors agree: reduce-scatter, allgather and every
/// C-Coll job ring (run_stack runs no other C-Coll schedule); any other
/// allreduce runs `config.algo`, and kAuto picks with choose_allreduce_algo
/// from a probe of rank 0's input (the ring for an empty input or a single
/// rank).
coll::AllreduceAlgo resolve_job_algo(Kernel kernel, bool allreduce, const JobConfig& config,
                                     const RankInputFn& rank_input);

}  // namespace hzccl
