// Recovery tier: rank failures (crash / hang / straggler) against the
// collective stacks.
//
// What the tier guarantees:
//   1. Detection + agreement: a seeded crash killing one rank mid-collective
//      makes *every* survivor observe the *same* RankFailedError — same
//      failed set, same epoch — with no deadlock (ctest watchdog) and no
//      split-brain.
//   2. Shrink-and-retry: with a RetryPolicy the job completes over the
//      survivors, bitwise-equal to a clean run of the surviving group.
//   3. Determinism: the whole failure story — virtual times, health
//      counters, failed sets — replays exactly from the seed.
//   4. Composition: rank failures layered on PR-1 link faults (drop /
//      corrupt / reorder / duplicate / stall) still recover.
#include <gtest/gtest.h>

#include <cctype>
#include <mutex>
#include <string>
#include <vector>

#include "hzccl/collectives/raw.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/trace/trace.hpp"

namespace hzccl {
namespace {

using coll::CollectiveConfig;
using simmpi::Comm;
using simmpi::FaultPlan;
using simmpi::NetModel;
using simmpi::RankFailedError;
using simmpi::RankFault;
using simmpi::RetryPolicy;
using simmpi::Runtime;

RankInputFn field_inputs(size_t elements, DatasetId id = DatasetId::kHurricane) {
  return [elements, id](int rank) {
    std::vector<float> full = generate_field(id, Scale::kTiny, static_cast<uint32_t>(rank));
    full.resize(elements);
    return full;
  };
}

FaultPlan rank_fault_plan(uint64_t seed, const std::string& schedule) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rank_faults = FaultPlan::parse_rank_faults(schedule);
  return plan;
}

/// The PR-1 mixed link plan (no mangle: raw floats have no decode layer).
FaultPlan mixed_links(FaultPlan plan) {
  plan.drop = 0.05;
  plan.corrupt = 0.03;
  plan.reorder = 0.1;
  plan.duplicate = 0.05;
  plan.stall = 0.05;
  return plan;
}

/// Clean reference over an explicit surviving group: a fresh job whose rank
/// r input is the survivor group[r]'s input.  The shrunken retry runs the
/// same algorithm over the same group shape, so outputs match bitwise.
JobResult survivor_reference(Kernel kernel, Op op, const JobConfig& faulted_config,
                             const std::vector<int>& group, const RankInputFn& inputs) {
  JobConfig config = faulted_config;
  config.nranks = static_cast<int>(group.size());
  config.faults = FaultPlan::none();
  config.retry = RetryPolicy{};
  const RankInputFn survivor_inputs = [&group, &inputs](int vrank) {
    return inputs(group[static_cast<size_t>(vrank)]);
  };
  return run_collective(kernel, op, config, survivor_inputs);
}

// ---------------------------------------------------------------------------
// 1. Detection + agreement
// ---------------------------------------------------------------------------

TEST(Recovery, EverySurvivorObservesTheSameFailure) {
  const int n = 8;
  const int victim = 3;
  Runtime rt(n, NetModel::omnipath_100g(),
             rank_fault_plan(11, "crash@rank=3,op=5"));
  const RankInputFn inputs = field_inputs(4000);
  CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;

  std::mutex mu;
  std::vector<std::vector<int>> failed_sets(n);
  std::vector<uint32_t> epochs(static_cast<size_t>(n), 99u);
  int survivors_thrown = 0;

  rt.run([&](Comm& comm) {
    std::vector<float> out;
    try {
      comm.guarded([&] { coll::raw_allreduce(comm, inputs(comm.phys_rank()), out, cc); });
      ADD_FAILURE() << "rank " << comm.phys_rank() << " missed the failure";
    } catch (const RankFailedError& e) {
      std::lock_guard<std::mutex> lock(mu);
      failed_sets[static_cast<size_t>(comm.phys_rank())] = e.failed_ranks();
      epochs[static_cast<size_t>(comm.phys_rank())] = e.epoch();
      ++survivors_thrown;
    }
  });

  EXPECT_EQ(survivors_thrown, n - 1);
  const std::vector<int> want{victim};
  for (int r = 0; r < n; ++r) {
    if (r == victim) continue;
    EXPECT_EQ(failed_sets[static_cast<size_t>(r)], want) << "survivor " << r;
    EXPECT_EQ(epochs[static_cast<size_t>(r)], 0u) << "survivor " << r;
  }

  const HealthStats h = total_health(rt.health_stats());
  EXPECT_EQ(h.crashes, 1u);
  EXPECT_GT(h.suspects, 0u);
  EXPECT_GT(h.dead_declared, 0u);
  EXPECT_EQ(h.failed_agreements, static_cast<uint64_t>(n - 1));
}

TEST(Recovery, HangsAreDetectedLikeCrashes) {
  const int n = 6;
  Runtime rt(n, NetModel::omnipath_100g(),
             rank_fault_plan(12, "hang@rank=5,op=9"));
  const RankInputFn inputs = field_inputs(3000);
  CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;

  std::mutex mu;
  int survivors_thrown = 0;
  rt.run([&](Comm& comm) {
    std::vector<float> out;
    try {
      comm.guarded([&] { coll::raw_allreduce(comm, inputs(comm.phys_rank()), out, cc); });
    } catch (const RankFailedError& e) {
      EXPECT_EQ(e.failed_ranks(), std::vector<int>{5});
      std::lock_guard<std::mutex> lock(mu);
      ++survivors_thrown;
    }
  });
  EXPECT_EQ(survivors_thrown, n - 1);
  EXPECT_EQ(total_health(rt.health_stats()).hangs, 1u);
}

TEST(Recovery, ABarrierCrashFailsEverySurvivorAtOneReleaseTime) {
  // crash@rank=1,op=1 fires at rank 1's barrier.  The other four wait on a
  // member that can never arrive, declare the failure on their own clocks
  // and agree: each leaves at the agreement's release (the latest
  // declaration plus 2(S-1) hops) with the same RankFailedError.  The rank
  // functions return after catching it, and a rank that retires early must
  // not disturb the release its slower peers have yet to read — so every
  // repeat gives every survivor the same clock.
  const int n = 5;
  const NetModel net = NetModel::omnipath_100g();
  const FaultPlan plan = rank_fault_plan(3, "crash@rank=1,op=1");
  const double latest_arrival = 1e-5 * n;  // rank r arrives at 1e-5 * (r + 1)
  const double release = latest_arrival + plan.recv_timeout_s + plan.fail_timeout_s +
                         2.0 * (n - 2) * net.latency_s;

  for (int repeat = 0; repeat < 20; ++repeat) {
    Runtime rt(n, net, plan);
    std::mutex mu;
    std::vector<double> left(static_cast<size_t>(n), -1.0);
    std::vector<std::vector<int>> failed(static_cast<size_t>(n));
    rt.run([&](Comm& comm) {
      comm.clock().advance(1e-5 * (comm.rank() + 1), simmpi::CostBucket::kCpt);
      try {
        comm.guarded([&] { comm.barrier(); });
        ADD_FAILURE() << "rank " << comm.phys_rank() << " passed the barrier";
      } catch (const RankFailedError& e) {
        std::lock_guard<std::mutex> lock(mu);
        left[static_cast<size_t>(comm.phys_rank())] = comm.clock().now();
        failed[static_cast<size_t>(comm.phys_rank())] = e.failed_ranks();
      }
    });
    for (int r = 0; r < n; ++r) {
      if (r == 1) continue;
      EXPECT_EQ(failed[static_cast<size_t>(r)], std::vector<int>{1}) << "survivor " << r;
      EXPECT_EQ(left[static_cast<size_t>(r)], left[0]) << "survivor " << r << " repeat " << repeat;
      const HealthStats& h = rt.health_stats()[static_cast<size_t>(r)];
      EXPECT_EQ(h.suspects, 1u);
      EXPECT_EQ(h.dead_declared, 1u);
      EXPECT_EQ(h.failed_agreements, 1u);
    }
    EXPECT_NEAR(left[0], release, 1e-12);
    EXPECT_EQ(rt.health_stats()[1].crashes, 1u);
  }
}

TEST(Recovery, WithoutRetryTheJobPropagatesTheTypedError) {
  JobConfig config;
  config.nranks = 8;
  config.faults = rank_fault_plan(13, "crash@rank=2,op=6");
  const RankInputFn inputs = field_inputs(4000);
  try {
    run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
    FAIL() << "expected RankFailedError";
  } catch (const RankFailedError& e) {
    EXPECT_EQ(e.failed_ranks(), std::vector<int>{2});
    EXPECT_EQ(e.epoch(), 0u);
  }
}

// ---------------------------------------------------------------------------
// 2. Shrink-and-retry
// ---------------------------------------------------------------------------

TEST(Recovery, RetryCompletesOverTheSurvivors) {
  const RankInputFn inputs = field_inputs(4000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.faults = rank_fault_plan(21, "crash@rank=3,op=7");
  config.retry = RetryPolicy::parse("3");

  const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  EXPECT_EQ(r.failed_ranks, std::vector<int>{3});
  EXPECT_EQ(r.final_group, (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
  EXPECT_EQ(r.final_epoch, 1u);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.health.crashes, 1u);
  EXPECT_EQ(r.health.shrinks, 7u);
  EXPECT_EQ(r.health.retries, 7u);

  // Bitwise-correct 7-rank reduction: identical to a clean run of the
  // surviving group.
  const JobResult ref =
      survivor_reference(Kernel::kMpi, Op::kAllreduce, config, r.final_group, inputs);
  ASSERT_FALSE(r.rank0_output.empty());
  EXPECT_EQ(r.rank0_output, ref.rank0_output);
}

TEST(Recovery, ASecondShrinkWithNoFailurePendingThrows) {
  // One failed agreement licenses one shrink.  A second call has no failed
  // verdict to recover from: every survivor gets an error instead of parking
  // in a round that can never complete, and the run returns.
  const int n = 4;
  Runtime rt(n, NetModel::omnipath_100g(), rank_fault_plan(5, "crash@rank=1,op=2"));
  const RankInputFn inputs = field_inputs(2000);
  CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;

  std::mutex mu;
  std::vector<std::string> errors(static_cast<size_t>(n));
  rt.run([&](Comm& comm) {
    std::vector<float> out;
    try {
      comm.guarded([&] { coll::raw_allreduce(comm, inputs(comm.phys_rank()), out, cc); });
      ADD_FAILURE() << "rank " << comm.phys_rank() << " missed the failure";
    } catch (const RankFailedError&) {
      comm.shrink();
      try {
        comm.shrink();
      } catch (const Error& e) {
        std::lock_guard<std::mutex> lock(mu);
        errors[static_cast<size_t>(comm.phys_rank())] = e.what();
      }
    }
  });
  for (const int r : {0, 2, 3}) {
    EXPECT_NE(errors[static_cast<size_t>(r)].find("no failed agreement"), std::string::npos)
        << "survivor " << r << ": '" << errors[static_cast<size_t>(r)] << "'";
    EXPECT_EQ(rt.health_stats()[static_cast<size_t>(r)].shrinks, 1u) << "survivor " << r;
  }
}

TEST(Recovery, TwoFailuresConsumeTwoRetries) {
  const RankInputFn inputs = field_inputs(4000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.faults = rank_fault_plan(22, "crash@rank=1,op=5;crash@rank=6,op=25");
  config.retry = RetryPolicy::parse("4");

  const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  EXPECT_EQ(r.final_group.size(), 6u);
  EXPECT_EQ(r.health.crashes, 2u);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.final_epoch, 2u);

  const JobResult ref =
      survivor_reference(Kernel::kMpi, Op::kAllreduce, config, r.final_group, inputs);
  EXPECT_EQ(r.rank0_output, ref.rank0_output);
}

TEST(Recovery, ExhaustedRetriesRethrow) {
  JobConfig config;
  config.nranks = 8;
  config.faults = rank_fault_plan(23, "crash@rank=1,op=5;crash@rank=6,op=25");
  config.retry = RetryPolicy::parse("2");  // two crashes, one retry: not enough
  EXPECT_THROW(run_collective(Kernel::kMpi, Op::kAllreduce, config, field_inputs(4000)),
               RankFailedError);
}

TEST(Recovery, ACrashAbandoningAHeldFrameHealsByTimeout) {
  // Under reorder 1.0 every send is held back until the sender's next
  // transport operation.  crash@rank=2,op=2 fires at the receive right after
  // rank 2's first send, so that frame dies in the crashed NIC: its window
  // entry flips to dropped, and the receiver heals it with one timeout and
  // one retransmit before the failure is detected.  At the odd crash points
  // no frame is held, and neither counter moves.
  const RankInputFn inputs = field_inputs(4000);
  for (const Kernel kernel : {Kernel::kMpi, Kernel::kHzcclMultiThread}) {
    for (const int crash_op : {1, 2, 3}) {
      JobConfig config;
      config.nranks = 6;
      config.abs_error_bound = 1e-3;
      config.faults = rank_fault_plan(5, "crash@rank=2,op=" + std::to_string(crash_op));
      config.faults.reorder = 1.0;
      config.retry = RetryPolicy::parse("3");

      const JobResult r = run_collective(kernel, Op::kAllreduce, config, inputs);
      const std::string where = kernel_name(kernel) + " op=" + std::to_string(crash_op);
      EXPECT_EQ(r.failed_ranks, std::vector<int>{2}) << where;
      EXPECT_EQ(r.attempts, 2) << where;
      const uint64_t healed = crash_op == 2 ? 1 : 0;
      EXPECT_EQ(r.transport.timeout_waits, healed) << where;
      EXPECT_EQ(r.transport.retransmits, healed) << where;

      const JobResult ref =
          survivor_reference(kernel, Op::kAllreduce, config, r.final_group, inputs);
      ASSERT_FALSE(r.rank0_output.empty()) << where;
      EXPECT_EQ(r.rank0_output, ref.rank0_output) << where;
    }
  }
}

TEST(Recovery, StragglersSlowTheJobWithoutFailingIt) {
  const RankInputFn inputs = field_inputs(4000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;

  const JobResult clean = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);

  config.faults = rank_fault_plan(24, "straggler@rank=2,x=8");
  const JobResult slow = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);

  EXPECT_EQ(slow.rank0_output, clean.rank0_output);  // cost-only, bit-exact
  EXPECT_EQ(slow.health.straggles, 1u);
  EXPECT_EQ(slow.health.crashes, 0u);
  EXPECT_EQ(slow.health.failed_agreements, 0u);
  EXPECT_TRUE(slow.failed_ranks.empty());
  EXPECT_GT(slow.slowest.total_seconds, clean.slowest.total_seconds);
}

// ---------------------------------------------------------------------------
// 3. Determinism and trace accounting
// ---------------------------------------------------------------------------

TEST(Recovery, TheWholeFailureStoryReplaysFromTheSeed) {
  const RankInputFn inputs = field_inputs(4000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.faults = mixed_links(rank_fault_plan(31, "crash@rank=4,op=11"));
  config.retry = RetryPolicy::parse("3");

  const JobResult a = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  const JobResult b = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);

  EXPECT_EQ(a.rank0_output, b.rank0_output);
  EXPECT_EQ(a.failed_ranks, b.failed_ranks);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.slowest.total_seconds, b.slowest.total_seconds);  // exact, not approx
  for (int r = 0; r < config.nranks; ++r) {
    const auto ra = a.per_rank[static_cast<size_t>(r)];
    const auto rb = b.per_rank[static_cast<size_t>(r)];
    EXPECT_EQ(ra.total_seconds, rb.total_seconds) << "rank " << r;
    EXPECT_EQ(describe(a.health_per_rank[static_cast<size_t>(r)]),
              describe(b.health_per_rank[static_cast<size_t>(r)])) << "rank " << r;
  }
}

TEST(Recovery, DetectionAgreementAndShrinkShowUpInTheTrace) {
  const RankInputFn inputs = field_inputs(4000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.faults = rank_fault_plan(32, "crash@rank=5,op=9");
  config.retry = RetryPolicy::parse("2");
  config.trace.enabled = true;

  const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  ASSERT_FALSE(r.trace.empty());

  std::array<uint64_t, trace::kNumEventKinds> totals{};
  for (const auto& events : r.trace.ranks) {
    const auto counts = trace::count_kinds(events);
    for (size_t k = 0; k < counts.size(); ++k) totals[k] += counts[k];
  }
  const auto kind_total = [&](trace::EventKind k) { return totals[static_cast<size_t>(k)]; };
  EXPECT_EQ(kind_total(trace::EventKind::kSuspect), r.health.suspects);
  EXPECT_EQ(kind_total(trace::EventKind::kDetect), r.health.dead_declared);
  EXPECT_GT(kind_total(trace::EventKind::kAgree), 0u);
  EXPECT_EQ(kind_total(trace::EventKind::kShrink), r.health.shrinks);
  EXPECT_EQ(kind_total(trace::EventKind::kBackoff), r.health.retries);

  const trace::Breakdown b = trace::aggregate(r.trace);
  EXPECT_GT(b.totals.recovery, 0.0);
}

// ---------------------------------------------------------------------------
// 4. Sweeps: kernel × op × ranks × crash point, with and without link faults
// ---------------------------------------------------------------------------

struct RecoveryCase {
  Kernel kernel;
  Op op;
  int nranks;
  uint64_t crash_op;
  bool link_faults;
};

class RecoverySweepTest : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(RecoverySweepTest, ShrunkenRetryMatchesACleanSurvivorRun) {
  const RecoveryCase c = GetParam();
  const RankInputFn inputs = field_inputs(4000);

  JobConfig config;
  config.nranks = c.nranks;
  config.abs_error_bound = 1e-3;
  const std::string schedule =
      "crash@rank=" + std::to_string(c.nranks - 1) + ",op=" + std::to_string(c.crash_op);
  config.faults = rank_fault_plan(0xFA17 ^ static_cast<uint64_t>(c.nranks) ^ c.crash_op,
                                  schedule);
  if (c.link_faults) config.faults = mixed_links(config.faults);
  config.retry = RetryPolicy::parse("3");

  const JobResult r = run_collective(c.kernel, c.op, config, inputs);
  EXPECT_EQ(r.failed_ranks, std::vector<int>{c.nranks - 1});
  ASSERT_EQ(r.final_group.size(), static_cast<size_t>(c.nranks - 1));

  const JobResult ref = survivor_reference(c.kernel, c.op, config, r.final_group, inputs);
  EXPECT_EQ(r.rank0_output, ref.rank0_output)
      << kernel_name(c.kernel) << " " << op_name(c.op) << " N=" << c.nranks
      << " op=" << c.crash_op << (c.link_faults ? " +links" : "");
}

std::vector<RecoveryCase> recovery_cases() {
  std::vector<RecoveryCase> cases;
  for (Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
      for (int n : {4, 8}) {
        // Crash points sized to the schedule: a 4-rank reduce-scatter only
        // performs ~6 transport ops per rank, so its late point is earlier.
        const uint64_t late = n == 4 ? 5 : 9;
        for (uint64_t crash_op : {uint64_t{3}, late}) {
          cases.push_back({k, op, n, crash_op, false});
        }
      }
    }
  }
  // The composition cases: rank failure layered on PR-1 link chaos.
  for (Kernel k : {Kernel::kMpi, Kernel::kHzcclMultiThread}) {
    for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
      cases.push_back({k, op, 8, 7, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, RecoverySweepTest, ::testing::ValuesIn(recovery_cases()),
                         [](const auto& info) {
                           const RecoveryCase& c = info.param;
                           std::string name = kernel_name(c.kernel) + "_" + op_name(c.op) +
                                              "_N" + std::to_string(c.nranks) + "_op" +
                                              std::to_string(c.crash_op) +
                                              (c.link_faults ? "_links" : "");
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

// Seed-derived placement: a bare "crash" entry picks its victim and firing
// point from the plan seed, so a seed sweep explores the crash-point space.
TEST(Recovery, SeedDerivedCrashesRecoverAcrossSeeds) {
  const RankInputFn inputs = field_inputs(4000);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    JobConfig config;
    config.nranks = 8;
    config.abs_error_bound = 1e-3;
    config.faults = rank_fault_plan(seed, "crash");
    config.retry = RetryPolicy::parse("3");

    const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
    ASSERT_EQ(r.failed_ranks.size(), 1u) << "seed " << seed;
    ASSERT_EQ(r.final_group.size(), 7u) << "seed " << seed;

    const JobResult ref =
        survivor_reference(Kernel::kMpi, Op::kAllreduce, config, r.final_group, inputs);
    EXPECT_EQ(r.rank0_output, ref.rank0_output) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hzccl
