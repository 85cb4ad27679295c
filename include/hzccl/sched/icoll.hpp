// The engine's root task for one rank of one job.
//
// There are no engine-side collective bodies: run_rank_collective awaits
// run_stack (core/dispatch.hpp), the same kernel x op x algorithm dispatch
// run_collective drives, over the same coroutine bodies (see
// collectives/schedules.hpp), with the engine's Port as the transport.  The
// two executors are byte-identical by construction; the differential sched
// tier remains as the safety net.
#pragma once

#include <vector>

#include "hzccl/sched/engine.hpp"

namespace hzccl::sched {

/// What one rank's collective produced.
struct RootOutcome {
  std::vector<float> output;      ///< full vector (allreduce/allgather) or owned block
  HzPipelineStats stats;          ///< hz_add totals of this rank
};

/// One rank's whole collective as a lazy coroutine.  `input` is the rank's
/// full input vector; for allgather the body contributes its owned ring
/// block of it.  The engine starts the task at grant time and drives it
/// through its receives.
[[nodiscard]] Task<RootOutcome> run_rank_collective(Port port, Kernel kernel, ICollOp op,
                                                    coll::AllreduceAlgo algo,
                                                    coll::CollectiveConfig config,
                                                    std::vector<float> input);

}  // namespace hzccl::sched
