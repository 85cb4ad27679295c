// Collective integration tests: functional correctness of all three stacks
// (raw MPI / C-Coll DOC / hZCCL) against the exact reduction, error-bound
// growth laws, ownership mapping, and the modeled-time orderings the paper's
// figures rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "hzccl/collectives/ccoll.hpp"
#include "hzccl/collectives/common.hpp"
#include "hzccl/collectives/hzccl_coll.hpp"
#include "hzccl/collectives/raw.hpp"
#include "hzccl/core/dispatch.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/stats/metrics.hpp"

namespace hzccl {
namespace {

using coll::CollectiveConfig;
using simmpi::CostBucket;
using simmpi::Mode;
using simmpi::NetModel;
using simmpi::Runtime;

/// Rank inputs: distinct hurricane-like fields, one per rank.
RankInputFn make_inputs(size_t elements, DatasetId id = DatasetId::kHurricane) {
  return [elements, id](int rank) {
    std::vector<float> full = generate_field(id, Scale::kTiny, static_cast<uint32_t>(rank));
    full.resize(elements);
    return full;
  };
}

struct StackCase {
  Kernel kernel;
  Op op;
  int nranks;
};

class StackSweepTest : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackSweepTest, MatchesExactReductionWithinBound) {
  const StackCase c = GetParam();
  const size_t elements = 6000;  // not divisible by most rank counts: ragged blocks
  JobConfig config;
  config.nranks = c.nranks;
  config.abs_error_bound = 1e-3;

  const RankInputFn inputs = make_inputs(elements);
  const JobResult result = run_collective(c.kernel, c.op, config, inputs);
  const std::vector<float> exact = exact_reduction(c.nranks, inputs);

  std::span<const float> want(exact);
  if (c.op == Op::kReduceScatter) {
    const Range owned =
        coll::ring_block_range(elements, c.nranks, coll::rs_owned_block(0, c.nranks));
    want = want.subspan(owned.begin, owned.size());
  }
  ASSERT_EQ(result.rank0_output.size(), want.size());

  // Error growth laws: raw is float-rounding only; hZCCL compresses each
  // contribution once (N*eb); C-Coll re-quantizes every round (~2N*eb).
  double bound;
  switch (c.kernel) {
    case Kernel::kMpi: bound = 1e-3; break;  // float reassociation slack
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread: bound = c.nranks * config.abs_error_bound * 1.01; break;
    default: bound = 2.0 * c.nranks * config.abs_error_bound * 1.01; break;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(result.rank0_output[i], want[i], bound)
        << kernel_name(c.kernel) << " " << op_name(c.op) << " N=" << c.nranks << " i=" << i;
  }
}

std::vector<StackCase> stack_cases() {
  std::vector<StackCase> cases;
  for (Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread,
                   Kernel::kCCollSingleThread, Kernel::kHzcclSingleThread}) {
    for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
      for (int n : {2, 3, 5, 8}) cases.push_back({k, op, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, StackSweepTest, ::testing::ValuesIn(stack_cases()),
                         [](const auto& pinfo) {
                           const StackCase& c = pinfo.param;
                           return "k" + std::to_string(static_cast<int>(c.kernel)) +
                                  (c.op == Op::kReduceScatter ? "_rs" : "_ar") + "_n" +
                                  std::to_string(c.nranks);
                         });

TEST(Collectives, AllRanksAgreeOnAllreduceResult) {
  const int n = 6;
  const size_t elements = 4096;
  const RankInputFn inputs = make_inputs(elements, DatasetId::kNyx);
  CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;

  Runtime rt(n, NetModel::omnipath_100g());
  std::vector<std::vector<float>> outputs(n);
  rt.run([&](simmpi::Comm& comm) {
    coll::hzccl_allreduce(comm, inputs(comm.rank()), outputs[comm.rank()], cc);
  });
  for (int r = 1; r < n; ++r) EXPECT_EQ(outputs[r], outputs[0]) << "rank " << r;
}

TEST(Collectives, HzcclAndCCollAgreeWithinCombinedBounds) {
  const int n = 4;
  const RankInputFn inputs = make_inputs(5000, DatasetId::kCesmAtm);
  JobConfig config;
  config.nranks = n;
  config.abs_error_bound = 1e-3;
  const auto hz = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  const auto cc = run_collective(Kernel::kCCollMultiThread, Op::kAllreduce, config, inputs);
  ASSERT_EQ(hz.rank0_output.size(), cc.rank0_output.size());
  for (size_t i = 0; i < hz.rank0_output.size(); ++i) {
    ASSERT_NEAR(hz.rank0_output[i], cc.rank0_output[i], 3.0 * n * config.abs_error_bound);
  }
}

TEST(Collectives, ReduceScatterBlockOwnershipMatchesSchedule) {
  const int n = 5;
  const size_t elements = 1000;
  CollectiveConfig cc;
  Runtime rt(n, NetModel::omnipath_100g());
  // Rank r contributes the constant r+1 everywhere; the reduced value is
  // sum(1..n) in every block, but sizes must match the schedule's ranges.
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> input(elements, static_cast<float>(comm.rank() + 1));
    std::vector<float> block;
    coll::raw_reduce_scatter(comm, input, block, cc);
    const Range owned =
        coll::ring_block_range(elements, n, coll::rs_owned_block(comm.rank(), n));
    EXPECT_EQ(block.size(), owned.size());
    for (float v : block) EXPECT_FLOAT_EQ(v, static_cast<float>(n * (n + 1) / 2));
  });
}

TEST(Collectives, MinMaxReduceOpsOnRawAndDocStacks) {
  const int n = 4;
  const size_t elements = 2000;
  const RankInputFn inputs = make_inputs(elements, DatasetId::kCesmAtm);

  // Element-wise min/max reference.
  std::vector<float> ref_min = inputs(0), ref_max = inputs(0);
  for (int r = 1; r < n; ++r) {
    const auto f = inputs(r);
    for (size_t i = 0; i < elements; ++i) {
      ref_min[i] = std::min(ref_min[i], f[i]);
      ref_max[i] = std::max(ref_max[i], f[i]);
    }
  }

  CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;
  for (coll::ReduceOp op : {coll::ReduceOp::kMin, coll::ReduceOp::kMax}) {
    cc.reduce_op = op;
    const auto& ref = op == coll::ReduceOp::kMin ? ref_min : ref_max;
    Runtime rt(n, NetModel::omnipath_100g());
    std::vector<std::vector<float>> outputs(n);
    rt.run([&](simmpi::Comm& comm) {
      coll::raw_allreduce(comm, inputs(comm.rank()), outputs[comm.rank()], cc);
    });
    for (size_t i = 0; i < elements; ++i) {
      ASSERT_FLOAT_EQ(outputs[0][i], ref[i]);  // raw is exact
    }
    rt.run([&](simmpi::Comm& comm) {
      coll::ccoll_allreduce(comm, inputs(comm.rank()), outputs[comm.rank()], cc);
    });
    // DOC min/max: each hop's value carries compression error <= a few eb.
    for (size_t i = 0; i < elements; ++i) {
      ASSERT_NEAR(outputs[0][i], ref[i], 2.0 * n * cc.abs_error_bound);
    }
  }
}

TEST(Collectives, HzcclRejectsNonSumReduceOps) {
  CollectiveConfig cc;
  cc.reduce_op = coll::ReduceOp::kMin;
  Runtime rt(2, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
                 std::vector<float> input(64, 1.0f), out;
                 coll::hzccl_allreduce(comm, input, out, cc);
               }),
               Error);
}

// Composition law: hzccl_allreduce is *defined* as reduce-scatter followed
// by compressed allgather, so composing the two stages by hand must produce
// the identical output vector — across every dataset in the registry and a
// sweep of error-bound / block-length / rank-count variants.
TEST(Collectives, AllreduceIsReduceScatterComposedWithAllgather) {
  struct Variant {
    double rel;
    uint32_t block_len;
    int nranks;
  };
  const Variant variants[] = {{1e-3, 32, 4}, {1e-2, 128, 5}, {1e-4, 17, 3}};

  for (DatasetId id : all_datasets()) {
    for (const Variant& v : variants) {
      const RankInputFn inputs = [id](int rank) {
        return generate_correlated_field(id, Scale::kTiny, static_cast<uint32_t>(rank));
      };
      const size_t elements = inputs(0).size();

      CollectiveConfig cc;
      cc.abs_error_bound = abs_bound_from_rel(inputs(0), v.rel);
      cc.block_len = v.block_len;

      Runtime fused_rt(v.nranks, NetModel::omnipath_100g());
      std::vector<std::vector<float>> fused(static_cast<size_t>(v.nranks));
      fused_rt.run([&](simmpi::Comm& comm) {
        coll::hzccl_allreduce(comm, inputs(comm.rank()),
                              fused[static_cast<size_t>(comm.rank())], cc);
      });

      Runtime composed_rt(v.nranks, NetModel::omnipath_100g());
      std::vector<std::vector<float>> composed(static_cast<size_t>(v.nranks));
      composed_rt.run([&](simmpi::Comm& comm) {
        const std::vector<float> input = inputs(comm.rank());
        const CompressedBuffer owned =
            coll::hzccl_reduce_scatter_compressed(comm, input, cc);
        coll::hzccl_allgather_compressed(comm, owned, input.size(),
                                         composed[static_cast<size_t>(comm.rank())], cc);
      });

      for (int r = 0; r < v.nranks; ++r) {
        ASSERT_EQ(composed[static_cast<size_t>(r)], fused[static_cast<size_t>(r)])
            << dataset_slug(id) << " rel=" << v.rel << " bl=" << v.block_len << " N="
            << v.nranks << " rank " << r << " (elements=" << elements << ")";
      }
    }
  }
}

/// Every field of a trace event, comparable and printable.
auto event_fields(const trace::Event& e) {
  return std::tuple(trace::kind_name(e.kind), e.t0, e.t1, e.seq, e.bytes, e.bytes_out, e.peer,
                    e.tag, e.aux, e.job);
}

/// raw_allreduce runs its ring steps in its output vector instead of
/// composing raw_reduce_scatter with raw_allgather; nothing observable may
/// change.  Outputs byte for byte, per-rank clocks (total and every
/// bucket) and every trace event equal the composition's, clean and under
/// link chaos, with verification off and per round, also when the input
/// and the output are the same vector.
TEST(Collectives, RawAllreduceIsReduceScatterComposedWithAllgather) {
  simmpi::FaultPlan chaos;
  chaos.seed = 0xA11;
  chaos.drop = 0.05;
  chaos.corrupt = 0.03;
  chaos.reorder = 0.08;
  chaos.duplicate = 0.05;
  chaos.stall = 0.05;
  const RankInputFn inputs = make_inputs(6001);  // ragged ring blocks
  struct Run {
    std::vector<std::vector<float>> outputs;
    std::vector<simmpi::ClockReport> reports;
    trace::Trace trace;
  };
  for (const int n : {4, 5}) {
    for (const coll::VerifyPolicy verify :
         {coll::VerifyPolicy::kOff, coll::VerifyPolicy::kPerRound}) {
      for (const bool faulty : {false, true}) {
        SCOPED_TRACE("N=" + std::to_string(n) + " verify " + coll::verify_policy_name(verify) +
                     (faulty ? " chaos" : " clean"));
        CollectiveConfig cc;
        cc.verify = verify;
        const auto run = [&](const auto& body) {
          Runtime rt(n, NetModel::omnipath_100g(), faulty ? chaos : simmpi::FaultPlan::none(),
                     trace::Options{.enabled = true});
          Run r;
          r.outputs.resize(static_cast<size_t>(n));
          r.reports = rt.run([&](simmpi::Comm& comm) {
            body(comm, inputs(comm.rank()), r.outputs[static_cast<size_t>(comm.rank())]);
          });
          r.trace = rt.trace();
          return r;
        };
        const Run composed = run([&](simmpi::Comm& comm, const std::vector<float>& input,
                                     std::vector<float>& out) {
          std::vector<float> block;
          coll::raw_reduce_scatter(comm, input, block, cc);
          coll::raw_allgather(comm, block, input.size(), out, cc);
        });
        const Run fused = run([&](simmpi::Comm& comm, const std::vector<float>& input,
                                  std::vector<float>& out) {
          coll::raw_allreduce(comm, input, out, cc);
        });
        const Run in_place = run([&](simmpi::Comm& comm, const std::vector<float>& input,
                                     std::vector<float>& out) {
          out = input;
          coll::raw_allreduce(comm, out, out, cc);
        });
        for (const Run* got : {&fused, &in_place}) {
          const std::string which = got == &fused ? "raw_allreduce" : "raw_allreduce in place";
          ASSERT_EQ(got->trace.ranks.size(), static_cast<size_t>(n)) << which;
          for (size_t r = 0; r < static_cast<size_t>(n); ++r) {
            const std::vector<float>& want = composed.outputs[r];
            const std::vector<float>& out = got->outputs[r];
            ASSERT_EQ(out.size(), want.size()) << which << " rank " << r;
            EXPECT_EQ(std::memcmp(out.data(), want.data(), want.size() * sizeof(float)), 0)
                << which << " rank " << r;
            EXPECT_EQ(got->reports[r].total_seconds, composed.reports[r].total_seconds)
                << which << " rank " << r;
            EXPECT_EQ(got->reports[r].bucket_seconds, composed.reports[r].bucket_seconds)
                << which << " rank " << r;
            const std::vector<trace::Event>& events = got->trace.ranks[r];
            const std::vector<trace::Event>& want_events = composed.trace.ranks[r];
            ASSERT_EQ(events.size(), want_events.size()) << which << " rank " << r;
            for (size_t i = 0; i < events.size(); ++i) {
              ASSERT_EQ(event_fields(events[i]), event_fields(want_events[i]))
                  << which << " rank " << r << " event " << i;
            }
          }
        }
      }
    }
  }
}

/// run_collective and the engine run every collective in the storage of its
/// input, which ends as the output.  Every body must be alias-safe: called
/// through run_stack (the dispatch both executors run) once with the input
/// lying in the output vector and once with separate buffers, it yields
/// the same output bytes, per-rank clocks (total and every bucket) and
/// trace events, for every stack and schedule, verification off and per
/// round, clean and under link chaos.  So does the engine's allgather op,
/// whose owned block already lies in place.
TEST(Collectives, EveryBodyRunsInPlace) {
  using coll::AllreduceAlgo;
  simmpi::FaultPlan chaos;
  chaos.seed = 0x1A9;
  chaos.drop = 0.05;
  chaos.corrupt = 0.05;
  chaos.reorder = 0.08;
  chaos.duplicate = 0.05;
  chaos.stall = 0.05;
  const NetModel net = NetModel::omnipath_100g_nodes(3);
  struct Run {
    std::vector<std::vector<float>> outputs;
    std::vector<simmpi::ClockReport> reports;
    TransportStats transport;
    trace::Trace trace;
  };
  struct Schedule {
    const char* name;
    Op op;
    AllreduceAlgo algo;
    bool allgather = false;  ///< the engine's allgather op instead of run_stack
  };
  const Schedule schedules[] = {
      {"ring allreduce", Op::kAllreduce, AllreduceAlgo::kRing},
      {"rd allreduce", Op::kAllreduce, AllreduceAlgo::kRecursiveDoubling},
      {"rab allreduce", Op::kAllreduce, AllreduceAlgo::kRabenseifner},
      {"2level allreduce", Op::kAllreduce, AllreduceAlgo::kTwoLevel},
      {"reduce-scatter", Op::kReduceScatter, AllreduceAlgo::kRing},
      {"allgather", Op::kAllreduce, AllreduceAlgo::kRing, true}};
  for (const int n : {6, 8}) {  // 6 folds in rd and leaves a remainder node; 8 halves in rab
    std::vector<std::vector<float>> inputs;
    for (int r = 0; r < n; ++r) inputs.push_back(make_inputs(3001)(r));
    for (const Kernel kernel :
         {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
      for (const Schedule& s : schedules) {
        // C-Coll always rings (run_stack ignores the schedule for it).
        if (kernel == Kernel::kCCollMultiThread && s.algo != AllreduceAlgo::kRing) continue;
        for (const coll::VerifyPolicy verify :
             {coll::VerifyPolicy::kOff, coll::VerifyPolicy::kPerRound}) {
          for (const bool faulty : {false, true}) {
            SCOPED_TRACE(kernel_name(kernel) + " " + s.name + " N=" + std::to_string(n) +
                         " verify " + coll::verify_policy_name(verify) +
                         (faulty ? " chaos" : " clean"));
            JobConfig config;
            config.nranks = n;
            config.abs_error_bound = 1e-3;
            config.verify = verify;
            const CollectiveConfig cc = config.collective_config(kernel_mode(kernel));
            const auto run = [&](bool in_place) {
              Runtime rt(n, net, faulty ? chaos : simmpi::FaultPlan::none(),
                         trace::Options{.enabled = true});
              Run r;
              r.outputs.resize(static_cast<size_t>(n));
              r.reports = rt.run([&](simmpi::Comm& comm) {
                const std::vector<float>& input = inputs[static_cast<size_t>(comm.rank())];
                std::vector<float>& out = r.outputs[static_cast<size_t>(comm.rank())];
                if (in_place) out = input;
                const std::span<const float> in = in_place ? std::span<const float>(out) : input;
                const coll::CommTransport t(comm);
                if (!s.allgather) {
                  HzPipelineStats stats;
                  run_to_completion(run_stack(t, kernel, s.op, s.algo, in, out, cc, &stats));
                  return;
                }
                const Range own = coll::ring_block_range(
                    in.size(), n, coll::rs_owned_block(comm.rank(), n));
                const std::span<const float> mine = in.subspan(own.begin, own.size());
                if (kernel == Kernel::kMpi) {
                  run_to_completion(coll::body::raw_allgather(t, mine, in.size(), out, cc));
                } else if (kernel == Kernel::kCCollMultiThread) {
                  run_to_completion(coll::body::ccoll_allgather(t, mine, in.size(), out, cc));
                } else {
                  run_to_completion(coll::body::hzccl_allgather(t, mine, in.size(), out, cc));
                }
              });
              r.transport = total_transport(rt.transport_stats());
              r.trace = rt.trace();
              return r;
            };
            const Run separate = run(false);
            const Run in_place = run(true);
            EXPECT_EQ(separate.transport.clean(), !faulty);
            for (size_t r = 0; r < static_cast<size_t>(n); ++r) {
              const std::vector<float>& want = separate.outputs[r];
              const std::vector<float>& got = in_place.outputs[r];
              ASSERT_EQ(got.size(), want.size()) << "rank " << r;
              EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
                  << "rank " << r;
              EXPECT_EQ(in_place.reports[r].total_seconds, separate.reports[r].total_seconds)
                  << "rank " << r;
              EXPECT_EQ(in_place.reports[r].bucket_seconds, separate.reports[r].bucket_seconds)
                  << "rank " << r;
              const std::vector<trace::Event>& events = in_place.trace.ranks[r];
              const std::vector<trace::Event>& want_events = separate.trace.ranks[r];
              ASSERT_EQ(events.size(), want_events.size()) << "rank " << r;
              for (size_t i = 0; i < events.size(); ++i) {
                ASSERT_EQ(event_fields(events[i]), event_fields(want_events[i]))
                    << "rank " << r << " event " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Collectives, SingleRankDegenerate) {
  JobConfig config;
  config.nranks = 1;
  const RankInputFn inputs = make_inputs(512);
  // N=1: reduce-scatter is the identity on the single block; allreduce too.
  const auto r = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  const auto exact = exact_reduction(1, inputs);
  ASSERT_EQ(r.rank0_output.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    ASSERT_NEAR(r.rank0_output[i], exact[i], 2e-3);
  }
}

// coll::hzccl_reduce_scatter and coll::hzccl_allreduce_recursive_doubling
// are the blocking stacks bench/e2e times directly: each reproduces
// run_collective's bytes and slowest clock for the same op and schedule.
TEST(Collectives, BlockingHzEntryPointsMatchRunCollective) {
  const int n = 6;
  const RankInputFn inputs = make_inputs(3001);
  using coll::VerifyPolicy;
  for (const VerifyPolicy verify : {VerifyPolicy::kOff, VerifyPolicy::kPerRound}) {
    for (const bool rd : {false, true}) {
      SCOPED_TRACE(std::string(rd ? "hzccl_allreduce_recursive_doubling" : "hzccl_reduce_scatter") +
                   " verify " + coll::verify_policy_name(verify));
      JobConfig config;
      config.nranks = n;
      config.abs_error_bound = 1e-3;
      config.verify = verify;
      config.algo = rd ? coll::AllreduceAlgo::kRecursiveDoubling : coll::AllreduceAlgo::kRing;
      const Op op = rd ? Op::kAllreduce : Op::kReduceScatter;
      const JobResult want = run_collective(Kernel::kHzcclMultiThread, op, config, inputs);
      const CollectiveConfig cc = config.collective_config(kernel_mode(Kernel::kHzcclMultiThread));
      Runtime rt(n, config.net);
      std::vector<float> rank0;
      const std::vector<simmpi::ClockReport> reports = rt.run([&](simmpi::Comm& comm) {
        std::vector<float> out;
        if (rd) {
          coll::hzccl_allreduce_recursive_doubling(comm, inputs(comm.rank()), out, cc);
        } else {
          coll::hzccl_reduce_scatter(comm, inputs(comm.rank()), out, cc);
        }
        if (comm.rank() == 0) rank0 = std::move(out);
      });
      EXPECT_EQ(rank0, want.rank0_output);
      EXPECT_EQ(Runtime::slowest(reports).total_seconds, want.slowest.total_seconds);
    }
  }
}

// The CLI spellings of the allreduce schedule and the verify policy.
TEST(Collectives, AlgoAndVerifySpellingsParse) {
  using coll::AllreduceAlgo;
  using coll::VerifyPolicy;
  for (int a = 0; a < coll::kNumAllreduceAlgos; ++a) {
    const auto algo = static_cast<AllreduceAlgo>(a);
    EXPECT_EQ(coll::parse_allreduce_algo(coll::allreduce_algo_name(algo)), algo);
  }
  for (const VerifyPolicy p :
       {VerifyPolicy::kOff, VerifyPolicy::kFinal, VerifyPolicy::kPerRound}) {
    EXPECT_EQ(coll::parse_verify_policy(coll::verify_policy_name(p)), p);
  }
  for (const char* rd : {"recursive-doubling", "recursive_doubling"}) {
    EXPECT_EQ(coll::parse_allreduce_algo(rd), AllreduceAlgo::kRecursiveDoubling) << rd;
  }
  EXPECT_EQ(coll::parse_allreduce_algo("rabenseifner"), AllreduceAlgo::kRabenseifner);
  for (const char* two : {"two-level", "two_level", "hier"}) {
    EXPECT_EQ(coll::parse_allreduce_algo(two), AllreduceAlgo::kTwoLevel) << two;
  }
  EXPECT_EQ(coll::parse_verify_policy("none"), VerifyPolicy::kOff);
  for (const char* round : {"per-round", "per_round"}) {
    EXPECT_EQ(coll::parse_verify_policy(round), VerifyPolicy::kPerRound) << round;
  }
  EXPECT_THROW((void)coll::parse_allreduce_algo("Ring"), Error);
  EXPECT_THROW((void)coll::parse_allreduce_algo(""), Error);
  EXPECT_THROW((void)coll::parse_verify_policy("always"), Error);
}

// The fold of recursive doubling: the largest power of two p2 <= size
// stays active; each of the first rem = size - p2 pairs folds its even
// rank into its odd one, and real_rank inverts the active numbering.
TEST(Collectives, DoublingLayoutFoldsTheRemainder) {
  const struct {
    int size, p2, rem;
  } cases[] = {{1, 1, 0}, {2, 2, 0}, {4, 4, 0}, {8, 8, 0}, {16, 16, 0},
               {3, 2, 1}, {5, 4, 1}, {6, 4, 2}, {7, 4, 3}};
  for (const auto& c : cases) {
    SCOPED_TRACE("size " + std::to_string(c.size));
    std::vector<int> owner(static_cast<size_t>(c.p2), -1);
    for (int rank = 0; rank < c.size; ++rank) {
      const coll::DoublingLayout d = coll::doubling_layout(rank, c.size);
      EXPECT_EQ(d.p2, c.p2);
      EXPECT_EQ(d.rem, c.rem);
      EXPECT_EQ(d.folded_pair, rank < 2 * c.rem) << "rank " << rank;
      if (d.folded_pair && rank % 2 == 0) {
        EXPECT_EQ(d.active, -1) << "rank " << rank << " folds into " << rank + 1;
        continue;
      }
      ASSERT_GE(d.active, 0) << "rank " << rank;
      ASSERT_LT(d.active, c.p2) << "rank " << rank;
      EXPECT_EQ(d.active, d.folded_pair ? rank / 2 : rank - c.rem) << "rank " << rank;
      EXPECT_EQ(d.real_rank(d.active), rank);
      EXPECT_EQ(owner[static_cast<size_t>(d.active)], -1) << "active index shared";
      owner[static_cast<size_t>(d.active)] = rank;
    }
    for (int a = 0; a < c.p2; ++a) {
      EXPECT_EQ(owner[static_cast<size_t>(a)], coll::doubling_layout(0, c.size).real_rank(a))
          << "active index " << a;
    }
  }
}

// Node grouping of the two-level schedules, from physical ranks: a
// remainder node, a shrunk group and a flat topology, each member's node
// listed leader first.
TEST(Collectives, NodeGroupsElectEachNodesLowestRank) {
  const simmpi::Topology three{.ranks_per_node = 3};
  const struct {
    const char* what;
    simmpi::Topology topo;
    std::vector<int> group;  ///< physical rank of each virtual rank
    int rank;                ///< virtual
    std::vector<int> leaders, members;
    int leader_idx;
  } cases[] = {
      {"full node", three, {0, 1, 2, 3, 4, 5, 6, 7}, 4, {0, 3, 6}, {3, 4, 5}, 1},
      {"remainder node", three, {0, 1, 2, 3, 4, 5, 6, 7}, 7, {0, 3, 6}, {6, 7}, 2},
      {"first node", three, {0, 1, 2, 3, 4, 5, 6, 7}, 0, {0, 3, 6}, {0, 1, 2}, 0},
      // Physical ranks 1, 3 and 6 failed: node 0 keeps 0 and 2, node 1 keeps
      // 4 and 5 (virtual 2 and 3), node 2 keeps 7 alone.
      {"shrunk group, survivor", three, {0, 2, 4, 5, 7}, 3, {0, 2, 4}, {2, 3}, 1},
      {"shrunk group, lone rank", three, {0, 2, 4, 5, 7}, 4, {0, 2, 4}, {4}, 2},
      {"shrunk group, leader lost", three, {1, 2, 4, 5}, 1, {0, 2}, {0, 1}, 0},
      {"flat", simmpi::Topology{}, {0, 1, 2, 3}, 2, {0, 1, 2, 3}, {2}, 2},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const coll::NodeGroups g = coll::node_groups(c.topo, c.group, c.rank);
    EXPECT_EQ(g.leaders, c.leaders);
    EXPECT_EQ(g.node_members, c.members);
    EXPECT_EQ(g.my_leader_idx, c.leader_idx);
    ASSERT_FALSE(g.node_members.empty());
    EXPECT_EQ(g.node_members.front(), g.leaders[static_cast<size_t>(g.my_leader_idx)]);
  }
}

// The raw stack's content-digest trailer is exactly 16 bytes on the wire.
TEST(Collectives, DigestTrailerIsSixteenBytes) {
  const integrity::Digest d{.sum = 0x0123456789ABCDEFULL, .wsum = 0xFEDCBA9876543210ULL};
  const std::array<uint8_t, 16> wire = coll::digest_trailer_bytes(d);
  const integrity::Digest back = coll::parse_digest_trailer(wire);
  EXPECT_EQ(back.sum, d.sum);
  EXPECT_EQ(back.wsum, d.wsum);
  for (const size_t n : {size_t{0}, size_t{8}, size_t{15}, size_t{17}, size_t{32}}) {
    const std::vector<uint8_t> bytes(n, 0x5A);
    EXPECT_THROW((void)coll::parse_digest_trailer(bytes), FormatError) << n << " bytes";
  }
}

// fz_stream_decodes is the check every compressed receive rests on: a
// stream passes when it parses and carries the expected element count (0
// accepts any), and with walk_blocks also when every chunk's block chain
// holds together.  The damaged chains below parse, so only the walk sees
// them.
TEST(Collectives, StreamDecodeCheckCases) {
  const std::vector<float> field = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(field, 1e-3);
  const std::vector<uint8_t> real = fz_compress(field, params).bytes;

  // One chunk of 4 blocks of 8 values, built by hand so its chain can be
  // damaged without touching the header or the chunk table.
  constexpr uint32_t kLen = 8;
  constexpr size_t kCount = 4 * kLen;
  const std::vector<uint8_t> residual{3, 0x0F, 0x12, 0x34, 0x56};  // c = 3: 1 + 1 + 3 bytes
  const auto stream = [&](std::initializer_list<std::vector<uint8_t>> blocks) {
    FzHeader h;
    h.num_elements = kCount;
    h.block_len = kLen;
    h.num_chunks = 1;
    h.error_bound = 1e-3;
    std::vector<uint8_t> wire(fz_preamble_size(1, h.flags), 0);
    std::memcpy(wire.data(), &h, sizeof h);
    for (const auto& b : blocks) wire.insert(wire.end(), b.begin(), b.end());
    return wire;
  };
  const std::vector<uint8_t> c0{0};
  const std::vector<uint8_t> chain = stream({residual, c0, residual, c0});
  std::vector<uint8_t> flipped = chain;
  flipped[fz_preamble_size(1)] ^= 0x80;  // the first block's code length: 3 -> 131
  std::vector<uint8_t> truncated = stream({residual, c0, residual, residual});
  truncated.pop_back();
  const std::vector<uint8_t> trailing = stream({residual, c0, residual, c0, c0});

  const struct {
    const char* what;
    std::vector<uint8_t> bytes;
    size_t expect;
    bool parse_only;  ///< fz_stream_decodes(..., walk_blocks = false)
    bool walked;      ///< fz_stream_decodes(..., walk_blocks = true)
  } cases[] = {
      {"clean stream", real, field.size(), true, true},
      {"wrong element count", real, field.size() + 1, false, false},
      {"count 0 accepts any count", real, 0, true, true},
      {"clean hand-built chunk", chain, kCount, true, true},
      {"flipped code-length byte", flipped, kCount, true, false},
      {"truncated block", truncated, kCount, true, false},
      {"trailing byte in a chunk", trailing, kCount, true, false},
      {"bytes that do not parse", {1, 2, 3}, 0, false, false},
      {"truncated header", std::vector<uint8_t>(real.begin(), real.begin() + 8), 0, false, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(coll::fz_stream_decodes(c.bytes, c.expect, false), c.parse_only);
    EXPECT_EQ(coll::fz_stream_decodes(c.bytes, c.expect, true), c.walked);
  }
}

// --- modeled-time orderings (the paper's headline comparisons) -----------------

class TimingTest : public ::testing::Test {
 protected:
  JobConfig config_;
  RankInputFn inputs_ = make_inputs(100000, DatasetId::kRtmSim2);

  void SetUp() override {
    config_.nranks = 8;
    config_.abs_error_bound = 1e-3;
  }

  double seconds(Kernel k, Op op) {
    return run_collective(k, op, config_, inputs_).slowest.total_seconds;
  }
};

TEST_F(TimingTest, CompressionBeatsRawOnCompressibleData) {
  for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
    const double mpi = seconds(Kernel::kMpi, op);
    const double ccoll = seconds(Kernel::kCCollMultiThread, op);
    const double hz = seconds(Kernel::kHzcclMultiThread, op);
    EXPECT_LT(ccoll, mpi) << op_name(op);
    EXPECT_LT(hz, ccoll) << op_name(op);
  }
}

TEST_F(TimingTest, MultiThreadBeatsSingleThread) {
  EXPECT_LT(seconds(Kernel::kHzcclMultiThread, Op::kAllreduce),
            seconds(Kernel::kHzcclSingleThread, Op::kAllreduce));
  EXPECT_LT(seconds(Kernel::kCCollMultiThread, Op::kAllreduce),
            seconds(Kernel::kCCollSingleThread, Op::kAllreduce));
}

TEST_F(TimingTest, HzcclSpendsLessDocTimeThanCCollSpendsOnDoc) {
  const auto hz = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config_, inputs_);
  const auto cc = run_collective(Kernel::kCCollMultiThread, Op::kAllreduce, config_, inputs_);
  EXPECT_LT(hz.slowest.doc_related(), cc.slowest.doc_related());
}

TEST_F(TimingTest, HzcclPipelineStatsPopulated) {
  const auto hz = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config_, inputs_);
  EXPECT_GT(hz.pipeline_stats.blocks(), 0u);
  const auto mpi = run_collective(Kernel::kMpi, Op::kAllreduce, config_, inputs_);
  EXPECT_EQ(mpi.pipeline_stats.blocks(), 0u);
}

TEST_F(TimingTest, BucketsTellTheFigure2Story) {
  // C-Coll's DOC share must dominate its own MPI share far more than
  // hZCCL's homomorphic share does (the Fig 2 motivation).
  const auto cc = run_collective(Kernel::kCCollSingleThread, Op::kAllreduce, config_, inputs_);
  const auto hz = run_collective(Kernel::kHzcclSingleThread, Op::kAllreduce, config_, inputs_);
  const double cc_doc_share = cc.slowest.doc_related() / cc.slowest.total_seconds;
  const double hz_doc_share = hz.slowest.doc_related() / hz.slowest.total_seconds;
  EXPECT_GT(cc_doc_share, hz_doc_share);
}

}  // namespace
}  // namespace hzccl
