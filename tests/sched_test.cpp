// Differential tests for the nonblocking sched tier: every i-collective the
// Engine runs must be *byte-identical* to its blocking counterpart — same
// kernel, same algorithm, same topology, same dataset.  Both executors run
// the same coroutine body per schedule (collectives/schedules.hpp), so this
// tier is the safety net over that one body and over the executors' own
// plumbing: nothing weaker than EXPECT_EQ on the float vectors is
// acceptable, and for reduce-scatter and allreduce the integrity counters,
// the hZ pipeline mix, the frames sent and the completion time must match
// too.  The sweep covers the three stacks (raw MPI, C-Coll, hZCCL), the four
// explicit allreduce schedules, the three verify policies, flat and
// hierarchical topologies, and the datasets; a second group checks that N
// jobs progressing interleaved through one engine still each produce their
// solo blocking bytes regardless of submission order or seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hzccl/collectives/ccoll.hpp"
#include "hzccl/collectives/common.hpp"
#include "hzccl/collectives/hzccl_coll.hpp"
#include "hzccl/collectives/raw.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/sched/engine.hpp"
#include "hzccl/simmpi/netmodel.hpp"
#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/trace/trace.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

using coll::AllreduceAlgo;
using coll::VerifyPolicy;
using sched::Engine;
using sched::EngineConfig;
using sched::ICollOp;
using sched::JobOutcome;
using sched::Request;
using sched::SubmitOptions;
using simmpi::NetModel;

constexpr size_t kElements = 3001;  // ragged blocks across 8 ranks

/// Rank inputs drawn from a dataset field; `salt` decorrelates the inputs of
/// distinct jobs sharing a dataset.  Each rank's field is generated once and
/// served from a cache (rank threads call in concurrently), so the sweep
/// spends its time in the collectives rather than in field synthesis.
RankInputFn dataset_input(DatasetId id, size_t elements, uint32_t salt = 0) {
  struct Cache {
    std::mutex mutex;
    std::map<int, std::vector<float>> fields;
  };
  auto cache = std::make_shared<Cache>();
  return [id, elements, salt, cache](int rank) {
    const std::lock_guard<std::mutex> lock(cache->mutex);
    auto it = cache->fields.find(rank);
    if (it == cache->fields.end()) {
      std::vector<float> f =
          generate_field(id, Scale::kTiny, static_cast<uint32_t>(rank) + salt);
      f.resize(elements, 0.25f * static_cast<float>(rank + 1));
      it = cache->fields.emplace(rank, std::move(f)).first;
    }
    return it->second;
  };
}

JobConfig job_config(int nranks, const NetModel& net, AllreduceAlgo algo) {
  JobConfig c;
  c.nranks = nranks;
  c.net = net;
  c.abs_error_bound = 1e-3;
  c.algo = algo;
  return c;
}

/// The blocking bytes the engine must reproduce.  Reduce-scatter and
/// allreduce go through run_collective; allgather (which has no core Op)
/// drives the blocking stage directly, contributing each rank's owned ring
/// block of its full input — the same decomposition the engine documents.
std::vector<float> blocking_reference(Kernel kernel, ICollOp op, const JobConfig& config,
                                      const RankInputFn& input) {
  if (op != ICollOp::kAllgather) {
    const Op blocking_op = op == ICollOp::kAllreduce ? Op::kAllreduce : Op::kReduceScatter;
    return run_collective(kernel, blocking_op, config, input).rank0_output;
  }
  simmpi::Runtime rt(config.nranks, config.net);
  std::vector<float> rank0;
  rt.run([&](simmpi::Comm& comm) {
    const std::vector<float> full_in = input(comm.rank());
    const Range own = coll::ring_block_range(full_in.size(), comm.size(),
                                             coll::rs_owned_block(comm.rank(), comm.size()));
    const std::vector<float> mine(full_in.begin() + static_cast<ptrdiff_t>(own.begin),
                                  full_in.begin() + static_cast<ptrdiff_t>(own.end));
    const coll::CollectiveConfig cc = config.collective_config(kernel_mode(kernel));
    std::vector<float> full;
    switch (kernel) {
      case Kernel::kMpi:
        coll::raw_allgather(comm, mine, full_in.size(), full, cc);
        break;
      case Kernel::kCCollMultiThread:
      case Kernel::kCCollSingleThread:
        coll::ccoll_allgather(comm, mine, full_in.size(), full, cc);
        break;
      default: {
        const CompressedBuffer compressed = fz_compress(mine, cc.fz_params(mine.size()));
        coll::hzccl_allgather_compressed(comm, compressed, full_in.size(), full, cc);
        break;
      }
    }
    if (comm.rank() == 0) rank0 = std::move(full);
  });
  return rank0;
}

std::vector<float> engine_output(Kernel kernel, ICollOp op, const JobConfig& config,
                                 const RankInputFn& input, const NetModel& net) {
  EngineConfig ec;
  ec.fleet_ranks = config.nranks;
  ec.net = net;
  Engine engine(ec);
  const Request req = engine.submit(kernel, op, config, input);
  engine.run();
  const JobOutcome& out = engine.outcome(req);
  EXPECT_TRUE(out.completed) << out.error;
  return out.rank0_output;
}

// ---------------------------------------------------------------------------
// The sweep: 3 stacks x 4 explicit algorithms x {flat, 4-per-node}.
// ---------------------------------------------------------------------------

struct DiffCase {
  Kernel kernel;
  AllreduceAlgo algo;
  bool hierarchical;  ///< 4 ranks per node vs flat
};

std::string diff_name(const testing::TestParamInfo<DiffCase>& info) {
  std::string name = kernel_name(info.param.kernel);
  for (char& c : name) {
    if (c == '-' || c == ' ' || c == ',' || c == '(' || c == ')') c = '_';
  }
  name += "_";
  name += coll::allreduce_algo_name(info.param.algo);
  name += info.param.hierarchical ? "_nodes" : "_flat";
  return name;
}

class SchedDifferential : public testing::TestWithParam<DiffCase> {};

/// One job on a lone engine against its blocking run.  Output bytes always;
/// reduce-scatter and allreduce, which run_collective reproduces whole, must
/// also match its digest checks and mismatches, hZ pipeline mix and frames
/// sent, and — granted at 0 with nothing else running — complete at the
/// blocking run's slowest-rank time exactly.
void expect_engine_matches_blocking(Kernel kernel, ICollOp op, const JobConfig& config,
                                    const RankInputFn& input, const NetModel& net,
                                    const std::string& what) {
  if (op == ICollOp::kAllgather) {
    ASSERT_EQ(engine_output(kernel, op, config, input, net),
              blocking_reference(kernel, op, config, input))
        << what;
    return;
  }
  const Op blocking_op = op == ICollOp::kAllreduce ? Op::kAllreduce : Op::kReduceScatter;
  const JobResult want = run_collective(kernel, blocking_op, config, input);

  EngineConfig ec;
  ec.fleet_ranks = config.nranks;
  ec.net = net;
  Engine engine(ec);
  const Request req = engine.submit(kernel, op, config, input);
  engine.run();
  const JobOutcome& got = engine.outcome(req);
  ASSERT_TRUE(got.completed) << what << ": " << got.error;
  ASSERT_EQ(got.rank0_output, want.rank0_output) << what;
  EXPECT_EQ(got.integrity.digests_checked, want.integrity.digests_checked) << what;
  EXPECT_EQ(got.integrity.mismatches, want.integrity.mismatches) << what;
  EXPECT_EQ(got.pipeline_stats.p1, want.pipeline_stats.p1) << what;
  EXPECT_EQ(got.pipeline_stats.p2, want.pipeline_stats.p2) << what;
  EXPECT_EQ(got.pipeline_stats.p3, want.pipeline_stats.p3) << what;
  EXPECT_EQ(got.pipeline_stats.p4, want.pipeline_stats.p4) << what;
  EXPECT_EQ(got.transport.frames_sent, want.transport.frames_sent) << what;
  EXPECT_EQ(got.grant_vtime, 0.0) << what;
  EXPECT_EQ(got.complete_vtime, want.slowest.total_seconds) << what;
}

TEST_P(SchedDifferential, MatchesBlockingBitwise) {
  const DiffCase p = GetParam();
  const NetModel net =
      p.hierarchical ? NetModel::omnipath_100g_nodes(4) : NetModel::omnipath_100g();
  const int nranks = 8;
  JobConfig config = job_config(nranks, net, p.algo);

  // Reduce-scatter and allgather always ring, so sweeping them once (on the
  // ring rows) covers them; the non-ring rows exercise allreduce only.
  std::vector<ICollOp> ops{ICollOp::kAllreduce};
  if (p.algo == AllreduceAlgo::kRing) {
    ops = {ICollOp::kReduceScatter, ICollOp::kAllreduce, ICollOp::kAllgather};
  }

  // Every dataset with verification off; three of them under each digest
  // policy (final: check at the last decode; round: check every stream and
  // every combine).
  const std::span<const DatasetId> all = all_datasets();
  const std::vector<DatasetId> every(all.begin(), all.end());
  const std::vector<DatasetId> verified{DatasetId::kCesmAtm, DatasetId::kHurricane,
                                        DatasetId::kNyx};
  for (const VerifyPolicy verify :
       {VerifyPolicy::kOff, VerifyPolicy::kFinal, VerifyPolicy::kPerRound}) {
    config.verify = verify;
    const std::vector<DatasetId>& datasets = verify == VerifyPolicy::kOff ? every : verified;
    for (const DatasetId id : datasets) {
      const RankInputFn input = dataset_input(id, kElements);
      for (const ICollOp op : ops) {
        expect_engine_matches_blocking(
            p.kernel, op, config, input, net,
            std::string("dataset ") + dataset_name(id) + " op " + sched::icoll_op_name(op) +
                " verify " + coll::verify_policy_name(verify));
        if (HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedDifferential,
    testing::Values(
        DiffCase{Kernel::kMpi, AllreduceAlgo::kRing, false},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kRecursiveDoubling, false},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kRabenseifner, false},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kTwoLevel, false},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kRing, true},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kRecursiveDoubling, true},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kRabenseifner, true},
        DiffCase{Kernel::kMpi, AllreduceAlgo::kTwoLevel, true},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kRing, false},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kRecursiveDoubling, false},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kRabenseifner, false},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kTwoLevel, false},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kRing, true},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kRecursiveDoubling, true},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kRabenseifner, true},
        DiffCase{Kernel::kCCollSingleThread, AllreduceAlgo::kTwoLevel, true},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kRing, false},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kRecursiveDoubling, false},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kRabenseifner, false},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kTwoLevel, false},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kRing, true},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kRecursiveDoubling, true},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kRabenseifner, true},
        DiffCase{Kernel::kHzcclSingleThread, AllreduceAlgo::kTwoLevel, true}),
    diff_name);

// The multi-thread kernel modes share every code path except the charged
// Mode, which must not change the bytes either.  One spot-check per stack.
TEST(SchedDifferentialModes, MultiThreadKernelsMatchBlocking) {
  const NetModel net = NetModel::omnipath_100g();
  const JobConfig config = job_config(8, net, AllreduceAlgo::kRing);
  const RankInputFn input = dataset_input(DatasetId::kCesmAtm, kElements);
  for (const Kernel kernel : {Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    const std::vector<float> got =
        engine_output(kernel, ICollOp::kAllreduce, config, input, net);
    const std::vector<float> want =
        blocking_reference(kernel, ICollOp::kAllreduce, config, input);
    ASSERT_EQ(got, want) << kernel_name(kernel);
  }
}

// The ISSUE's 8-ranks-per-node shape: 16 fleet ranks, two nodes, the
// two-level schedule actually exercising the leader ring.
TEST(SchedDifferentialModes, TwoLevelSixteenRanksEightPerNode) {
  const NetModel net = NetModel::omnipath_100g_nodes(8);
  const JobConfig config = job_config(16, net, AllreduceAlgo::kTwoLevel);
  const RankInputFn input = dataset_input(DatasetId::kHurricane, 4096 + 7);
  for (const Kernel kernel : {Kernel::kMpi, Kernel::kHzcclSingleThread}) {
    const std::vector<float> got =
        engine_output(kernel, ICollOp::kAllreduce, config, input, net);
    const std::vector<float> want =
        blocking_reference(kernel, ICollOp::kAllreduce, config, input);
    ASSERT_EQ(got, want) << kernel_name(kernel);
  }
}

// kAuto must resolve to the same schedule the blocking path picks, and the
// resolved choice lands in the outcome.
TEST(SchedDifferentialModes, AutoAlgoResolvesLikeBlocking) {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  const JobConfig config = job_config(8, net, AllreduceAlgo::kAuto);
  const RankInputFn input = dataset_input(DatasetId::kNyx, kElements);

  EngineConfig ec;
  ec.fleet_ranks = 8;
  ec.net = net;
  Engine engine(ec);
  const Request req = engine.submit(Kernel::kHzcclSingleThread, ICollOp::kAllreduce,
                                    config, input);
  engine.run();
  const JobOutcome& out = engine.outcome(req);
  ASSERT_TRUE(out.completed) << out.error;

  const JobResult blocking =
      run_collective(Kernel::kHzcclSingleThread, Op::kAllreduce, config, input);
  EXPECT_EQ(out.algo, blocking.algo);
  EXPECT_EQ(out.rank0_output, blocking.rank0_output);
}

// C-Coll runs only the ring (run_stack), so whatever schedule a job asks
// for, both executors must report the ring, stamp no algorithm marker and
// return the ring's bytes.
TEST(SchedDifferentialModes, CCollReportsTheRingItRuns) {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  const RankInputFn input = dataset_input(DatasetId::kCesmAtm, kElements);
  const std::vector<float> ring =
      run_collective(Kernel::kCCollMultiThread, Op::kAllreduce,
                     job_config(8, net, AllreduceAlgo::kRing), input)
          .rank0_output;
  auto algo_markers = [](const trace::Trace& t) {
    size_t count = 0;
    for (const auto& events : t.ranks) {
      for (const trace::Event& e : events) {
        if (e.kind == trace::EventKind::kPack && e.aux >= trace::kAuxAlgoBase) ++count;
      }
    }
    return count;
  };
  for (const AllreduceAlgo algo :
       {AllreduceAlgo::kAuto, AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kRabenseifner,
        AllreduceAlgo::kTwoLevel}) {
    const std::string what = coll::allreduce_algo_name(algo);
    JobConfig config = job_config(8, net, algo);
    config.trace.enabled = true;
    const JobResult blocking =
        run_collective(Kernel::kCCollMultiThread, Op::kAllreduce, config, input);
    EXPECT_EQ(blocking.algo, AllreduceAlgo::kRing) << what;
    EXPECT_EQ(algo_markers(blocking.trace), 0u) << what;
    EXPECT_EQ(blocking.rank0_output, ring) << what;

    EngineConfig ec;
    ec.fleet_ranks = 8;
    ec.net = net;
    ec.trace.enabled = true;
    Engine engine(ec);
    const Request req =
        engine.submit(Kernel::kCCollMultiThread, ICollOp::kAllreduce, config, input);
    engine.run();
    const JobOutcome& out = engine.outcome(req);
    ASSERT_TRUE(out.completed) << what << ": " << out.error;
    EXPECT_EQ(out.algo, AllreduceAlgo::kRing) << what;
    EXPECT_EQ(algo_markers(engine.trace()), 0u) << what;
    EXPECT_EQ(out.rank0_output, ring) << what;
  }
}

// ---------------------------------------------------------------------------
// N overlapping jobs through one engine, in arbitrary progress orders.
// ---------------------------------------------------------------------------

struct MixJob {
  Kernel kernel;
  ICollOp op;
  AllreduceAlgo algo;
  int first_rank;
  int nranks;
  DatasetId dataset;
};

/// Six jobs with overlapping placements — every interleaving of their frames
/// shares ranks and links, yet each must land its solo blocking bytes.
std::vector<MixJob> overlapping_mix() {
  return {
      {Kernel::kHzcclSingleThread, ICollOp::kAllreduce, AllreduceAlgo::kRing, 0, 8,
       DatasetId::kCesmAtm},
      {Kernel::kCCollSingleThread, ICollOp::kReduceScatter, AllreduceAlgo::kRing, 4, 8,
       DatasetId::kHurricane},
      {Kernel::kMpi, ICollOp::kAllreduce, AllreduceAlgo::kRecursiveDoubling, 0, 12,
       DatasetId::kNyx},
      {Kernel::kHzcclSingleThread, ICollOp::kAllgather, AllreduceAlgo::kRing, 2, 8,
       DatasetId::kRtmSim1},
      {Kernel::kMpi, ICollOp::kReduceScatter, AllreduceAlgo::kRing, 0, 6,
       DatasetId::kRtmSim2},
      {Kernel::kCCollSingleThread, ICollOp::kAllreduce, AllreduceAlgo::kRing, 6, 6,
       DatasetId::kCesmAtm},
  };
}

void expect_mix_matches_blocking(const std::vector<int>& order, uint64_t seed,
                                 double stagger_s) {
  const std::vector<MixJob> mix = overlapping_mix();
  const NetModel net = NetModel::omnipath_100g_nodes(4);

  EngineConfig ec;
  ec.fleet_ranks = 12;
  ec.net = net;
  ec.seed = seed;
  Engine engine(ec);

  std::vector<Request> requests(mix.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t i = static_cast<size_t>(order[pos]);
    const MixJob& j = mix[i];
    const JobConfig config = job_config(j.nranks, net, j.algo);
    SubmitOptions opt;
    opt.first_rank = j.first_rank;
    opt.enqueue_vtime = static_cast<double>(pos) * stagger_s;
    requests[i] = engine.submit(j.kernel, j.op, config,
                                dataset_input(j.dataset, kElements, static_cast<uint32_t>(i)),
                                opt);
  }
  engine.run();

  for (size_t i = 0; i < mix.size(); ++i) {
    const MixJob& j = mix[i];
    const JobConfig config = job_config(j.nranks, net, j.algo);
    const JobOutcome& out = engine.outcome(requests[i]);
    ASSERT_TRUE(out.completed) << "job " << i << ": " << out.error;
    const std::vector<float> want = blocking_reference(
        j.kernel, j.op, config, dataset_input(j.dataset, kElements, static_cast<uint32_t>(i)));
    ASSERT_EQ(out.rank0_output, want) << "job " << i;
  }
}

TEST(SchedOverlap, SixOverlappingJobsMatchSoloBlocking) {
  expect_mix_matches_blocking({0, 1, 2, 3, 4, 5}, /*seed=*/0, /*stagger_s=*/0.0);
}

TEST(SchedOverlap, ProgressOrderDoesNotChangeBytes) {
  // Reversed submission, a different admission-salt seed, and staggered
  // arrivals all reshuffle the interleaving; the bytes must not move.
  expect_mix_matches_blocking({5, 4, 3, 2, 1, 0}, /*seed=*/7, /*stagger_s=*/0.0);
  expect_mix_matches_blocking({2, 0, 5, 1, 4, 3}, /*seed=*/42, /*stagger_s=*/3e-6);
  expect_mix_matches_blocking({3, 5, 0, 4, 2, 1}, /*seed=*/1234, /*stagger_s=*/50e-6);
}

TEST(SchedOverlap, SerializedAdmissionStillMatchesBlocking) {
  // max_concurrent = 1 is the bench baseline; it must serialize, not break.
  const std::vector<MixJob> mix = overlapping_mix();
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  EngineConfig ec;
  ec.fleet_ranks = 12;
  ec.net = net;
  ec.max_concurrent = 1;
  Engine engine(ec);
  std::vector<Request> requests;
  requests.reserve(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    const MixJob& j = mix[i];
    SubmitOptions opt;
    opt.first_rank = j.first_rank;
    requests.push_back(engine.submit(j.kernel, j.op, job_config(j.nranks, net, j.algo),
                                     dataset_input(j.dataset, kElements,
                                                   static_cast<uint32_t>(i)),
                                     opt));
  }
  engine.run();
  // Serialized grants: completion windows must not overlap.
  std::vector<std::pair<double, double>> windows;
  for (size_t i = 0; i < mix.size(); ++i) {
    const MixJob& j = mix[i];
    const JobOutcome& out = engine.outcome(requests[i]);
    ASSERT_TRUE(out.completed) << out.error;
    const std::vector<float> want = blocking_reference(
        j.kernel, j.op, job_config(j.nranks, net, j.algo),
        dataset_input(j.dataset, kElements, static_cast<uint32_t>(i)));
    ASSERT_EQ(out.rank0_output, want) << "job " << i;
    windows.emplace_back(out.grant_vtime, out.complete_vtime);
  }
  std::sort(windows.begin(), windows.end());
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].first, windows[i - 1].second - 1e-12)
        << "grants overlapped under max_concurrent=1";
  }
}

// ---------------------------------------------------------------------------
// Request semantics and submission validation.
// ---------------------------------------------------------------------------

TEST(SchedRequest, TestWaitOutcomeLifecycle) {
  const NetModel net = NetModel::omnipath_100g();
  EngineConfig ec;
  ec.fleet_ranks = 8;
  ec.net = net;
  Engine engine(ec);
  const JobConfig config = job_config(8, net, AllreduceAlgo::kRing);
  const RankInputFn input = dataset_input(DatasetId::kCesmAtm, 512);

  const Request a = engine.iallreduce(Kernel::kMpi, config, input);
  SubmitOptions later;
  later.enqueue_vtime = 1.0;  // arrives a virtual second after job a
  const Request b = engine.ireduce_scatter(Kernel::kMpi, config, input, later);

  EXPECT_FALSE(engine.test(a));
  EXPECT_FALSE(engine.test(b));
  EXPECT_THROW((void)engine.outcome(a), Error);

  engine.wait(a);  // drives a to completion; b has not even arrived yet
  EXPECT_TRUE(engine.test(a));
  EXPECT_FALSE(engine.test(b));
  EXPECT_TRUE(engine.outcome(a).completed);

  engine.run();
  EXPECT_TRUE(engine.test(b));
  EXPECT_TRUE(engine.outcome(b).completed);
  EXPECT_GE(engine.outcome(b).grant_vtime, 1.0);
  EXPECT_GE(engine.makespan(), engine.outcome(b).complete_vtime - 1e-12);

  // Timeline ordering holds for both.
  for (const Request& r : {a, b}) {
    const JobOutcome& out = engine.outcome(r);
    EXPECT_LE(out.enqueue_vtime, out.grant_vtime);
    EXPECT_LE(out.grant_vtime, out.complete_vtime);
  }
}

TEST(SchedRequest, SubmitValidation) {
  const NetModel net = NetModel::omnipath_100g();
  EngineConfig ec;
  ec.fleet_ranks = 8;
  ec.net = net;
  Engine engine(ec);
  const JobConfig config = job_config(8, net, AllreduceAlgo::kRing);
  const RankInputFn input = dataset_input(DatasetId::kCesmAtm, 128);

  SubmitOptions off_fleet;
  off_fleet.first_rank = 4;  // 4 + 8 > 8
  EXPECT_THROW((void)engine.submit(Kernel::kMpi, ICollOp::kAllreduce, config, input, off_fleet),
               Error);

  SubmitOptions negative;
  negative.first_rank = -1;
  EXPECT_THROW((void)engine.submit(Kernel::kMpi, ICollOp::kAllreduce, config, input, negative),
               Error);

  SubmitOptions bad_weight;
  bad_weight.weight = 0.0;
  EXPECT_THROW((void)engine.submit(Kernel::kMpi, ICollOp::kAllreduce, config, input, bad_weight),
               Error);

  SubmitOptions bad_time;
  bad_time.enqueue_vtime = -1e-6;
  EXPECT_THROW((void)engine.submit(Kernel::kMpi, ICollOp::kAllreduce, config, input, bad_time),
               Error);

  EXPECT_THROW((void)engine.submit(Kernel::kMpi, ICollOp::kAllreduce, config, nullptr), Error);
  EXPECT_THROW((void)engine.outcome(Request{}), Error);
}

TEST(SchedRequest, AFailedJobReportsItsRootCauseAlone) {
  // One of rank 2's values leaves the 30-bit quantization domain, so its
  // compression throws.  The engine job fails without a retry and reports
  // the message run_collective throws for the same input; a good job on the
  // same ranks still completes.
  const NetModel net = NetModel::omnipath_100g();
  const JobConfig config = job_config(4, net, AllreduceAlgo::kRing);
  const RankInputFn good = dataset_input(DatasetId::kHurricane, 4000);
  const RankInputFn bad = [good](int rank) {
    std::vector<float> v = good(rank);
    if (rank == 2) v[1234] = 1e30f;
    return v;
  };
  std::string expected;
  try {
    (void)run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, bad);
  } catch (const QuantizationRangeError& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());

  EngineConfig ec;
  ec.fleet_ranks = 4;
  ec.net = net;
  Engine engine(ec);
  const Request failing = engine.iallreduce(Kernel::kHzcclMultiThread, config, bad);
  const Request fine = engine.iallreduce(Kernel::kHzcclMultiThread, config, good);
  engine.run();

  const JobOutcome& failed = engine.outcome(failing);
  EXPECT_FALSE(failed.completed);
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(failed.error, expected);
  EXPECT_TRUE(engine.outcome(fine).completed);
}

TEST(SchedRequest, EngineRejectsLinkFaultPlans) {
  // The engine runs every valid link-fault plan on the runtime's link layer
  // and validates each plan it is given: a plan assembled field by field
  // with a negative timeout or a probability above 1 is rejected.
  EngineConfig valid;
  valid.fleet_ranks = 4;
  valid.faults.drop = 0.5;
  EXPECT_NO_THROW(Engine{valid});

  EngineConfig negative_timeout = valid;
  negative_timeout.faults.recv_timeout_s = -1.0;
  EXPECT_THROW(Engine{negative_timeout}, Error);

  EngineConfig over_one = valid;
  over_one.faults.drop = 1.5;
  EXPECT_THROW(Engine{over_one}, Error);

  EngineConfig bad_fleet;
  bad_fleet.fleet_ranks = 0;
  EXPECT_THROW(Engine{bad_fleet}, Error);
}

}  // namespace
}  // namespace hzccl
