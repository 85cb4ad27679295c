// hZCCL public API façade.
//
// Single-include surface for library users: compressor, homomorphic
// operator, and a collective-job runner that executes one collective across
// a simulated cluster and returns both the functional result and the modeled
// timing.  The Kernel numbering matches the paper's artifact:
//   Kernel 0 — original MPI (no compression)
//   Kernel 1 — C-Coll, multi-thread mode
//   Kernel 2 — hZCCL,  multi-thread mode
//   Kernel 3 — C-Coll, single-thread mode
//   Kernel 4 — hZCCL,  single-thread mode
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hzccl/collectives/ccoll.hpp"
#include "hzccl/collectives/common.hpp"
#include "hzccl/collectives/hzccl_coll.hpp"
#include "hzccl/collectives/raw.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/homomorphic/doc.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_ops.hpp"
#include "hzccl/homomorphic/hz_static.hpp"
#include "hzccl/simmpi/runtime.hpp"

namespace hzccl {

/// Library version string.
std::string version();

/// The artifact's kernel numbering (see file comment).
enum class Kernel : int {
  kMpi = 0,
  kCCollMultiThread = 1,
  kHzcclMultiThread = 2,
  kCCollSingleThread = 3,
  kHzcclSingleThread = 4,
};
std::string kernel_name(Kernel k);
bool kernel_uses_compression(Kernel k);
simmpi::Mode kernel_mode(Kernel k);

enum class Op { kReduceScatter, kAllreduce };
std::string op_name(Op op);

/// One collective job over a simulated cluster.
struct JobConfig {
  int nranks = 8;
  double abs_error_bound = 1e-4;
  uint32_t block_len = 32;
  simmpi::NetModel net = simmpi::NetModel::omnipath_100g();
  simmpi::CostModel cost = simmpi::CostModel::paper_broadwell();
  int host_threads = 1;  ///< OpenMP threads per rank on this host (functional)
  /// Seeded fault injection for the simulated fabric; FaultPlan::none()
  /// keeps the transport on its clean fast path.
  simmpi::FaultPlan faults = simmpi::FaultPlan::none();
  /// Reaction to rank failures: on RankFailedError the job shrinks to the
  /// survivors and re-runs, up to max_attempts times, charging the backoff
  /// to the virtual clock.  The default (1 attempt) propagates the error.
  simmpi::RetryPolicy retry;
  /// Virtual-clock event recording (trace.hpp); disabled by default, in
  /// which case JobResult::trace stays empty and the hot path pays one
  /// predictable branch per clock advance.
  trace::Options trace;
  /// Allreduce exchange schedule (Op::kAllreduce only; reduce-scatter always
  /// rings).  kAuto probes rank 0's data once and resolves via the
  /// size/topology selector (cluster::choose_allreduce_algo); the resolved
  /// choice lands in JobResult::algo and is stable across retry attempts.
  /// The C-Coll kernels always ring (their per-round recompression defeats
  /// the latency-optimal schedules).
  coll::AllreduceAlgo algo = coll::AllreduceAlgo::kRing;
  /// ABFT digest verification policy.  kOff is the pre-integrity wire;
  /// kFinal rechecks at the final decode (detection: IntegrityError on
  /// mismatch); kPerRound verifies every received stream and every combine
  /// output and recovers via retransmit / recompute / raw fallback.
  coll::VerifyPolicy verify = coll::VerifyPolicy::kOff;

  coll::CollectiveConfig collective_config(simmpi::Mode mode) const {
    coll::CollectiveConfig c;
    c.abs_error_bound = abs_error_bound;
    c.block_len = block_len;
    c.mode = mode;
    c.cost = cost;
    c.host_threads = host_threads;
    c.verify = verify;
    return c;
  }
};

struct JobResult {
  simmpi::ClockReport slowest;                  ///< modeled collective completion
  std::vector<simmpi::ClockReport> per_rank;
  std::vector<float> rank0_output;              ///< reduced block (RS) or full vector (AR)
  HzPipelineStats pipeline_stats;               ///< populated for hZCCL kernels
  size_t input_bytes_per_rank = 0;
  std::vector<TransportStats> transport_per_rank;  ///< fault/recovery counters
  TransportStats transport;                        ///< sum over ranks
  std::vector<HealthStats> health_per_rank;        ///< rank-failure counters
  HealthStats health;                              ///< sum over ranks
  std::vector<IntegrityStats> integrity_per_rank;  ///< digest verify/recover counters
  IntegrityStats integrity;                        ///< sum over ranks
  trace::Trace trace;                              ///< per-rank event streams (if enabled)

  // Rank-failure outcome (meaningful when JobConfig::faults schedules rank
  // faults).  A completed job with a non-empty failed_ranks finished over
  // the survivors after shrink-and-retry.
  std::vector<int> failed_ranks;  ///< physical ranks lost across all attempts
  std::vector<int> final_group;   ///< surviving physical ranks (completion group)
  uint32_t final_epoch = 0;       ///< group epoch of the completing attempt
  int attempts = 1;               ///< collective runs including the final one

  /// The Allreduce exchange schedule that actually ran (JobConfig::algo
  /// with kAuto resolved; kRing for reduce-scatter jobs).
  coll::AllreduceAlgo algo = coll::AllreduceAlgo::kRing;
};

/// Produces rank `r`'s input vector; every rank must return the same length.
/// Both executors call it once per rank per attempt (and once more for rank
/// 0 when JobConfig::algo is kAuto, to probe the data) and run the
/// collective in the returned vector's storage, so a retried attempt (after
/// a rank failure and shrink) calls it again; it must return the same
/// vector every time.
using RankInputFn = std::function<std::vector<float>(int rank)>;

/// Run one collective with the chosen kernel across config.nranks simulated
/// ranks.  Functionally exact (real bytes reduced); time is virtual.  Each
/// rank's collective runs in place, in the vector `rank_input` returned
/// (see RankInputFn).
[[nodiscard]] JobResult run_collective(Kernel kernel, Op op, const JobConfig& config,
                                       const RankInputFn& rank_input);

/// Exact (double-accumulated) element-wise sum of all ranks' inputs — the
/// reference the accuracy checks compare against.
std::vector<float> exact_reduction(int nranks, const RankInputFn& rank_input);

/// Same, over an explicit set of physical ranks — the reference for a job
/// that completed over the survivors (JobResult::final_group).
std::vector<float> exact_reduction(const std::vector<int>& ranks,
                                   const RankInputFn& rank_input);

}  // namespace hzccl
