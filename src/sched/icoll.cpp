// The engine's root task: one rank's collective, dispatched through
// run_stack (core/dispatch.hpp) to the shared coroutine bodies of
// collectives/schedules.hpp — the same bodies run_collective runs — with
// this engine's Port as the transport.
#include "hzccl/sched/icoll.hpp"

#include "hzccl/core/dispatch.hpp"

namespace hzccl::sched {

Task<RootOutcome> run_rank_collective(Port port, Kernel kernel, ICollOp op,
                                      coll::AllreduceAlgo algo, coll::CollectiveConfig config,
                                      std::vector<float> input) {
  RootOutcome out;
  if (op != ICollOp::kAllgather) {
    const Op stack_op = op == ICollOp::kAllreduce ? Op::kAllreduce : Op::kReduceScatter;
    co_await run_stack(port, kernel, stack_op, algo, input, out.output, config, &out.stats);
    co_return out;
  }

  // Allgather (engine only): the rank contributes its owned ring block of
  // `input`, mirroring the blocking reduce-scatter + allgather decomposition.
  const Range own = coll::ring_block_range(input.size(), port.size(),
                                           coll::rs_owned_block(port.rank(), port.size()));
  const std::span<const float> mine(input.data() + own.begin, own.size());
  switch (kernel) {
    case Kernel::kMpi:
      co_await coll::body::raw_allgather(port, mine, input.size(), out.output, config);
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread:
      co_await coll::body::ccoll_allgather(port, mine, input.size(), out.output, config);
      break;
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread:
      co_await coll::body::hzccl_allgather(port, mine, input.size(), out.output, config);
      break;
  }
  co_return out;
}

}  // namespace hzccl::sched
