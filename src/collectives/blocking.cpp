// The blocking entry points of raw.hpp, ccoll.hpp, hzccl_coll.hpp,
// algorithms.hpp and movement.hpp.  Each runs its schedule's one coroutine
// body (schedules.hpp) to completion on the calling rank thread:
// CommTransport's receives block in place, so the body never suspends.
#include "hzccl/collectives/algorithms.hpp"
#include "hzccl/collectives/ccoll.hpp"
#include "hzccl/collectives/hzccl_coll.hpp"
#include "hzccl/collectives/movement.hpp"
#include "hzccl/collectives/raw.hpp"
#include "hzccl/collectives/schedules.hpp"

namespace hzccl::coll {

using simmpi::Comm;

void raw_reduce_scatter(Comm& comm, std::span<const float> input, std::vector<float>& out_block,
                        const CollectiveConfig& config) {
  run_to_completion(body::raw_reduce_scatter(CommTransport(comm), input, out_block, config));
}

void raw_allgather(Comm& comm, std::span<const float> my_block, size_t total_elements,
                   std::vector<float>& out_full, const CollectiveConfig& config) {
  run_to_completion(
      body::raw_allgather(CommTransport(comm), my_block, total_elements, out_full, config));
}

void raw_allreduce(Comm& comm, std::span<const float> input, std::vector<float>& out_full,
                   const CollectiveConfig& config) {
  run_to_completion(body::raw_allreduce(CommTransport(comm), input, out_full, config));
}

void raw_allreduce_recursive_doubling(Comm& comm, std::span<const float> input,
                                      std::vector<float>& out_full,
                                      const CollectiveConfig& config) {
  run_to_completion(
      body::raw_allreduce_recursive_doubling(CommTransport(comm), input, out_full, config));
}

void raw_allreduce_rabenseifner(Comm& comm, std::span<const float> input,
                                std::vector<float>& out_full, const CollectiveConfig& config) {
  run_to_completion(
      body::raw_allreduce_rabenseifner(CommTransport(comm), input, out_full, config));
}

void ccoll_allgather(Comm& comm, std::span<const float> my_block, size_t total_elements,
                     std::vector<float>& out_full, const CollectiveConfig& config) {
  run_to_completion(
      body::ccoll_allgather(CommTransport(comm), my_block, total_elements, out_full, config));
}

void ccoll_allreduce(Comm& comm, std::span<const float> input, std::vector<float>& out_full,
                     const CollectiveConfig& config) {
  run_to_completion(body::ccoll_allreduce(CommTransport(comm), input, out_full, config));
}

CompressedBuffer hzccl_reduce_scatter_compressed(Comm& comm, std::span<const float> input,
                                                 const CollectiveConfig& config,
                                                 HzPipelineStats* pipeline_stats) {
  return run_to_completion(
      body::hzccl_reduce_scatter_compressed(CommTransport(comm), input, config, pipeline_stats));
}

void hzccl_reduce_scatter(Comm& comm, std::span<const float> input,
                          std::vector<float>& out_block, const CollectiveConfig& config,
                          HzPipelineStats* pipeline_stats) {
  run_to_completion(body::hzccl_reduce_scatter(CommTransport(comm), input, out_block, config,
                                               pipeline_stats));
}

void hzccl_allgather_compressed(Comm& comm, const CompressedBuffer& my_block,
                                size_t total_elements, std::vector<float>& out_full,
                                const CollectiveConfig& config) {
  run_to_completion(body::hzccl_allgather_compressed(CommTransport(comm), my_block,
                                                     total_elements, out_full, config));
}

void hzccl_allreduce(Comm& comm, std::span<const float> input, std::vector<float>& out_full,
                     const CollectiveConfig& config, HzPipelineStats* pipeline_stats) {
  run_to_completion(
      body::hzccl_allreduce(CommTransport(comm), input, out_full, config, pipeline_stats));
}

void hzccl_allreduce_recursive_doubling(Comm& comm, std::span<const float> input,
                                        std::vector<float>& out_full,
                                        const CollectiveConfig& config,
                                        HzPipelineStats* pipeline_stats) {
  run_to_completion(body::hzccl_allreduce_recursive_doubling(CommTransport(comm), input,
                                                             out_full, config, pipeline_stats));
}

void raw_bcast(Comm& comm, std::vector<float>& data, int root, const CollectiveConfig& config) {
  run_to_completion(body::raw_bcast(CommTransport(comm), data, root, config));
}

void ccoll_bcast(Comm& comm, std::vector<float>& data, int root,
                 const CollectiveConfig& config) {
  run_to_completion(body::ccoll_bcast(CommTransport(comm), data, root, config));
}

void raw_gather(Comm& comm, std::span<const float> mine, int root, std::vector<float>& out,
                const CollectiveConfig& config) {
  run_to_completion(body::raw_gather(CommTransport(comm), mine, root, out, config));
}

}  // namespace hzccl::coll
