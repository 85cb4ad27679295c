#include "hzccl/cluster/autotune.hpp"

#include <algorithm>
#include <sstream>

#include "hzccl/cluster/roundsim.hpp"
#include "hzccl/stats/metrics.hpp"

namespace hzccl {
namespace {

/// The tuners' depth profile of a probe sample: its fresh compression
/// ratio, then the ratio and pipeline mix of a self hz_add.  A self-add is
/// the pessimistic depth-2 proxy (active regions fully overlap), which is
/// the honest default when the tuner cannot see other ranks' data; activity
/// cannot grow further once the supports fully overlap, so the model
/// extends the depth-2 measurement to every deeper level.
cluster::CompressionProfile probe_profile(std::span<const float> sample,
                                          const JobConfig& config) {
  FzParams params;
  params.abs_error_bound = config.abs_error_bound;
  params.block_len = config.block_len;
  const CompressedBuffer probe = fz_compress(sample, params);
  HzPipelineStats stats;
  const CompressedBuffer self_sum = hz_add(probe, probe, &stats);
  cluster::CompressionProfile profile;
  profile.sample_elements = sample.size();
  profile.block_len = params.block_len;
  profile.ratio.push_back(compression_ratio(sample.size_bytes(), probe.size_bytes()));
  profile.ratio.push_back(compression_ratio(sample.size_bytes(), self_sum.size_bytes()));
  profile.hz_stats.push_back(stats);
  return profile;
}

}  // namespace

std::string AutotuneResult::summary() const {
  std::ostringstream out;
  out << "chose " << kernel_name(kernel) << " (probe ratio " << sample_ratio << ", P4 "
      << pipeline4_percent << "%)";
  return out.str();
}

AutotuneResult choose_kernel(std::span<const float> sample, Op op, size_t bytes_per_rank,
                             const JobConfig& config) {
  if (sample.empty()) throw Error("choose_kernel: need a non-empty probe sample");
  if (config.nranks < 2) throw Error("choose_kernel: need at least 2 ranks");

  AutotuneResult result;
  const cluster::CompressionProfile profile = probe_profile(sample, config);
  result.sample_ratio = profile.ratio[0];
  result.pipeline4_percent = profile.hz_stats[0].percent(4);

  for (size_t k = 0; k < 5; ++k) {
    const Kernel kernel = static_cast<Kernel>(k);
    result.predicted_seconds[k] =
        cluster::model_collective(kernel, op, config.nranks, bytes_per_rank, profile,
                                  config.net, config.cost)
            .seconds;
  }

  size_t best = 0;
  for (size_t k = 1; k < result.predicted_seconds.size(); ++k) {
    if (result.predicted_seconds[k] < result.predicted_seconds[best]) best = k;
  }
  result.kernel = static_cast<Kernel>(best);
  return result;
}

std::string AlgoSelection::summary() const {
  std::ostringstream out;
  out << "chose " << coll::allreduce_algo_name(algo) << " (";
  bool first = true;
  for (int a = 1; a < coll::kNumAllreduceAlgos; ++a) {
    if (!first) out << ", ";
    first = false;
    out << coll::allreduce_algo_name(static_cast<coll::AllreduceAlgo>(a)) << " "
        << predicted_seconds[static_cast<size_t>(a)] << "s";
  }
  out << ")";
  return out.str();
}

AlgoSelection choose_allreduce_algo(std::span<const float> sample, Kernel kernel,
                                    size_t bytes_per_rank, const JobConfig& config) {
  if (config.nranks < 2) throw Error("choose_allreduce_algo: need at least 2 ranks");

  // Probe the data like choose_kernel.  The uncompressed kMpi kernel never
  // consults the ratios, so it accepts an empty sample and uses a neutral
  // profile.
  cluster::CompressionProfile profile;
  if (sample.empty()) {
    if (kernel != Kernel::kMpi) {
      throw Error("choose_allreduce_algo: compressed kernels need a probe sample");
    }
    profile.sample_elements = 1;
    profile.block_len = config.block_len;
    profile.ratio.push_back(1.0);
    profile.hz_stats.push_back(HzPipelineStats{});
  } else {
    profile = probe_profile(sample, config);
  }

  AlgoSelection result;
  size_t best = 0;
  for (int a = 1; a < coll::kNumAllreduceAlgos; ++a) {
    const auto algo = static_cast<coll::AllreduceAlgo>(a);
    result.predicted_seconds[static_cast<size_t>(a)] =
        cluster::model_allreduce_algo(kernel, algo, config.nranks, bytes_per_rank, profile,
                                      config.net, config.cost)
            .seconds;
    if (best == 0 || result.predicted_seconds[static_cast<size_t>(a)] <
                         result.predicted_seconds[best]) {
      best = static_cast<size_t>(a);
    }
  }
  result.algo = static_cast<coll::AllreduceAlgo>(best);
  return result;
}

coll::AllreduceAlgo resolve_job_algo(Kernel kernel, bool allreduce, const JobConfig& config,
                                     const RankInputFn& rank_input) {
  const bool ccoll = kernel == Kernel::kCCollMultiThread || kernel == Kernel::kCCollSingleThread;
  if (!allreduce || ccoll) return coll::AllreduceAlgo::kRing;
  if (config.algo != coll::AllreduceAlgo::kAuto) return config.algo;
  const std::vector<float> probe = rank_input(0);
  if (probe.empty() || config.nranks < 2) return coll::AllreduceAlgo::kRing;
  constexpr size_t kProbeElems = size_t{1} << 16;
  std::span<const float> sample(probe.data(), std::min(probe.size(), kProbeElems));
  if (kernel == Kernel::kMpi) sample = {};
  return choose_allreduce_algo(sample, kernel, probe.size() * sizeof(float), config).algo;
}

}  // namespace hzccl
