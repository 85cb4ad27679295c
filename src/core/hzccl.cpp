#include "hzccl/core/hzccl.hpp"

#include <mutex>

#include "hzccl/cluster/autotune.hpp"
#include "hzccl/core/dispatch.hpp"

namespace hzccl {

std::string version() { return "1.0.0"; }

std::string kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kMpi: return "MPI";
    case Kernel::kCCollMultiThread: return "C-Coll (multi-thread)";
    case Kernel::kHzcclMultiThread: return "hZCCL (multi-thread)";
    case Kernel::kCCollSingleThread: return "C-Coll (single-thread)";
    case Kernel::kHzcclSingleThread: return "hZCCL (single-thread)";
  }
  throw Error("kernel_name: bad kernel");
}

bool kernel_uses_compression(Kernel k) { return k != Kernel::kMpi; }

simmpi::Mode kernel_mode(Kernel k) {
  switch (k) {
    case Kernel::kMpi:
    case Kernel::kCCollMultiThread:
    case Kernel::kHzcclMultiThread: return simmpi::Mode::kMultiThread;
    case Kernel::kCCollSingleThread:
    case Kernel::kHzcclSingleThread: return simmpi::Mode::kSingleThread;
  }
  throw Error("kernel_mode: bad kernel");
}

std::string op_name(Op op) {
  return op == Op::kReduceScatter ? "Reduce_scatter" : "Allreduce";
}

JobResult run_collective(Kernel kernel, Op op, const JobConfig& config,
                         const RankInputFn& rank_input) {
  simmpi::Runtime runtime(config.nranks, config.net, config.faults, config.trace);
  const coll::CollectiveConfig cc = config.collective_config(kernel_mode(kernel));

  JobResult result;
  std::mutex result_mutex;

  const coll::AllreduceAlgo algo =
      resolve_job_algo(kernel, op == Op::kAllreduce, config, rank_input);
  result.algo = algo;

  auto rank_fn = [&](simmpi::Comm& comm) {
    // Inputs are keyed by *physical* rank: a survivor contributes the same
    // vector on every attempt no matter how the group is renumbered.  The
    // collective runs in that vector's own storage, the way MPI_IN_PLACE
    // does, so it ends as the output.
    std::vector<float> output = rank_input(comm.phys_rank());
    const size_t input_bytes = output.size() * sizeof(float);
    HzPipelineStats stats;

    // Algorithm marker: non-ring schedules stamp one zero-length span at the
    // origin of each rank's timeline (kAuxAlgoBase + algo).  Ring jobs stay
    // marker-free so pre-algorithm traces replay byte-identically.
    if (algo != coll::AllreduceAlgo::kRing) {
      comm.endpoint().mark(trace::EventKind::kPack, trace::kNoJob,
                           static_cast<uint8_t>(trace::kAuxAlgoBase + static_cast<int>(algo)),
                           input_bytes);
    }

    int failures = 0;
    auto attempt = [&] {
      // A retried attempt starts from scratch: the failed run consumed the
      // input, so it is fetched again, and its stats are discarded, not
      // merged.
      if (failures > 0) output = rank_input(comm.phys_rank());
      stats = HzPipelineStats{};
      run_to_completion(run_stack(coll::CommTransport(comm), kernel, op, algo,
                                  std::span<const float>(output), output, cc, &stats));
    };

    std::vector<int> lost;
    for (;;) {
      try {
        comm.guarded(attempt);
        break;
      } catch (const simmpi::RankFailedError& e) {
        lost.insert(lost.end(), e.failed_ranks().begin(), e.failed_ranks().end());
        ++failures;
        if (failures >= config.retry.max_attempts) throw;
        comm.retry_backoff(config.retry, failures);
        comm.shrink();
      }
    }

    std::lock_guard<std::mutex> lock(result_mutex);
    result.pipeline_stats += stats;
    // Virtual rank 0 — the lowest surviving physical rank — owns the
    // outcome record; after a shrink that need not be physical rank 0.
    if (comm.rank() == 0) {
      result.rank0_output = std::move(output);
      result.input_bytes_per_rank = input_bytes;
      result.failed_ranks = std::move(lost);
      result.final_group = comm.group();
      result.final_epoch = comm.epoch();
      result.attempts = failures + 1;
    }
  };

  result.per_rank = runtime.run(rank_fn);
  result.slowest = simmpi::Runtime::slowest(result.per_rank);
  result.transport_per_rank = runtime.transport_stats();
  result.transport = total_transport(result.transport_per_rank);
  result.health_per_rank = runtime.health_stats();
  result.health = total_health(result.health_per_rank);
  result.integrity_per_rank = runtime.integrity_stats();
  result.integrity = total_integrity(result.integrity_per_rank);
  result.trace = runtime.trace();
  return result;
}

std::vector<float> exact_reduction(const std::vector<int>& ranks,
                                   const RankInputFn& rank_input) {
  std::vector<double> acc;
  for (const int r : ranks) {
    const std::vector<float> input = rank_input(r);
    if (acc.empty()) acc.resize(input.size(), 0.0);
    if (acc.size() != input.size()) throw Error("exact_reduction: rank inputs differ in size");
    for (size_t i = 0; i < input.size(); ++i) acc[i] += input[i];
  }
  std::vector<float> out(acc.size());
  for (size_t i = 0; i < acc.size(); ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

std::vector<float> exact_reduction(int nranks, const RankInputFn& rank_input) {
  std::vector<int> ranks(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) ranks[static_cast<size_t>(r)] = r;
  return exact_reduction(ranks, rank_input);
}

}  // namespace hzccl
