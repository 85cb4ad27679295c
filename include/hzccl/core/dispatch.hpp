// Which collective body a job runs: kernel x op x allreduce schedule,
// written once for both executors.  run_collective drives it to completion
// on each rank thread; the sched::Engine awaits it in each rank's root task.
#pragma once

#include <span>
#include <vector>

#include "hzccl/collectives/schedules.hpp"
#include "hzccl/core/hzccl.hpp"

namespace hzccl {

/// Run `kernel`'s stack for `op` under the resolved schedule `algo` (see
/// resolve_job_algo).  `stats` accumulates the hZ pipeline mix of the
/// homomorphic kernels and is untouched by the others.
template <coll::Transport T>
Task<void> run_stack(T t, Kernel kernel, Op op, coll::AllreduceAlgo algo,
                     std::span<const float> input, std::vector<float>& output,
                     const coll::CollectiveConfig& config, HzPipelineStats* stats) {
  namespace body = coll::body;
  using coll::AllreduceAlgo;
  switch (kernel) {
    case Kernel::kMpi:
      if (op == Op::kReduceScatter) {
        co_await body::raw_reduce_scatter(t, input, output, config);
      } else if (algo == AllreduceAlgo::kRecursiveDoubling) {
        co_await body::raw_allreduce_recursive_doubling(t, input, output, config);
      } else if (algo == AllreduceAlgo::kRabenseifner) {
        co_await body::raw_allreduce_rabenseifner(t, input, output, config);
      } else if (algo == AllreduceAlgo::kTwoLevel) {
        co_await body::raw_allreduce_two_level(t, input, output, config);
      } else {
        co_await body::raw_allreduce(t, input, output, config);
      }
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread:
      // C-Coll always rings (resolve_job_algo reports kRing for it): its
      // per-round decompress/recompress scales with the data volume per
      // step, which the latency-optimal schedules inflate.
      if (op == Op::kReduceScatter) {
        co_await body::ccoll_reduce_scatter(t, input, output, config);
      } else {
        co_await body::ccoll_allreduce(t, input, output, config);
      }
      break;
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread:
      if (op == Op::kReduceScatter) {
        co_await body::hzccl_reduce_scatter(t, input, output, config, stats);
      } else if (algo == AllreduceAlgo::kRecursiveDoubling) {
        co_await body::hzccl_allreduce_recursive_doubling(t, input, output, config, stats);
      } else if (algo == AllreduceAlgo::kRabenseifner) {
        co_await body::hzccl_allreduce_rabenseifner(t, input, output, config, stats);
      } else if (algo == AllreduceAlgo::kTwoLevel) {
        co_await body::hzccl_allreduce_two_level(t, input, output, config, stats);
      } else {
        co_await body::hzccl_allreduce(t, input, output, config, stats);
      }
      break;
  }
}

}  // namespace hzccl
