// Public-API façade tests: kernel metadata, the job runner's contract, and
// the exact-reduction reference helper.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <vector>

#include "hzccl/core/hzccl.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

TEST(Version, NonEmpty) { EXPECT_FALSE(version().empty()); }

TEST(KernelMeta, NamesMatchArtifactNumbering) {
  EXPECT_EQ(kernel_name(Kernel::kMpi), "MPI");
  EXPECT_EQ(kernel_name(Kernel::kCCollMultiThread), "C-Coll (multi-thread)");
  EXPECT_EQ(kernel_name(Kernel::kHzcclMultiThread), "hZCCL (multi-thread)");
  EXPECT_EQ(kernel_name(Kernel::kCCollSingleThread), "C-Coll (single-thread)");
  EXPECT_EQ(kernel_name(Kernel::kHzcclSingleThread), "hZCCL (single-thread)");
}

TEST(KernelMeta, CompressionFlag) {
  EXPECT_FALSE(kernel_uses_compression(Kernel::kMpi));
  EXPECT_TRUE(kernel_uses_compression(Kernel::kHzcclSingleThread));
}

TEST(KernelMeta, Modes) {
  EXPECT_EQ(kernel_mode(Kernel::kCCollMultiThread), simmpi::Mode::kMultiThread);
  EXPECT_EQ(kernel_mode(Kernel::kCCollSingleThread), simmpi::Mode::kSingleThread);
  EXPECT_EQ(kernel_mode(Kernel::kMpi), simmpi::Mode::kMultiThread);
}

TEST(OpMeta, Names) {
  EXPECT_EQ(op_name(Op::kReduceScatter), "Reduce_scatter");
  EXPECT_EQ(op_name(Op::kAllreduce), "Allreduce");
}

TEST(ExactReduction, SumsAcrossRanks) {
  const auto inputs = [](int rank) {
    return std::vector<float>{static_cast<float>(rank), 1.0f};
  };
  const std::vector<float> sum = exact_reduction(4, inputs);
  EXPECT_EQ(sum, (std::vector<float>{6.0f, 4.0f}));
}

TEST(ExactReduction, MismatchedSizesThrow) {
  const auto inputs = [](int rank) { return std::vector<float>(rank + 1, 0.0f); };
  EXPECT_THROW(exact_reduction(2, inputs), Error);
}

TEST(RunCollective, ReportsPerRankClocks) {
  JobConfig config;
  config.nranks = 4;
  const auto inputs = [](int) { return std::vector<float>(1024, 1.0f); };
  const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  EXPECT_EQ(r.per_rank.size(), 4u);
  EXPECT_GT(r.slowest.total_seconds, 0.0);
  for (const auto& rank : r.per_rank) {
    EXPECT_LE(rank.total_seconds, r.slowest.total_seconds + 1e-15);
  }
  EXPECT_EQ(r.input_bytes_per_rank, 1024 * sizeof(float));
}

TEST(RunCollective, OutputSizesMatchOperation) {
  JobConfig config;
  config.nranks = 4;
  const size_t elements = 4000;
  const auto inputs = [&](int) { return std::vector<float>(elements, 2.0f); };

  const auto rs = run_collective(Kernel::kHzcclMultiThread, Op::kReduceScatter, config, inputs);
  EXPECT_EQ(rs.rank0_output.size(), elements / 4);

  const auto ar = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  EXPECT_EQ(ar.rank0_output.size(), elements);
}

TEST(RunCollective, AFailingRankReportsItsOwnError) {
  // One value of rank 2 leaves the 30-bit quantization domain, so rank 2's
  // compression throws; its peers then fail only because the run aborted.
  // The job reports rank 2's error, not a bystander's.
  JobConfig config;
  config.nranks = 4;
  config.abs_error_bound = 1e-3;
  const auto inputs = [](int rank) {
    std::vector<float> v(4000);
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<float>(i % 97) * 0.01f;
    if (rank == 2) v[1234] = 1e30f;
    return v;
  };
  EXPECT_THROW((void)run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs),
               QuantizationRangeError);
}

TEST(RunCollective, ConstantInputsReduceExactly) {
  // Constant fields quantize exactly, so every stack is bit-accurate here.
  JobConfig config;
  config.nranks = 3;
  config.abs_error_bound = 1e-4;
  const auto inputs = [](int rank) {
    return std::vector<float>(512, static_cast<float>(rank + 1));
  };
  for (Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    const auto r = run_collective(k, Op::kAllreduce, config, inputs);
    for (float v : r.rank0_output) ASSERT_NEAR(v, 6.0f, 4e-4) << kernel_name(k);
  }
}

// run_collective runs each rank's collective in the storage of its input,
// which ends as the output, so a retried attempt fetches the input again:
// once per rank on a clean plan, and once more for each retried attempt.
TEST(RunCollective, FetchesEachInputOncePerAttempt) {
  constexpr int kRanks = 6;
  for (const Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    SCOPED_TRACE(kernel_name(k));
    std::array<std::atomic<int>, kRanks> fetches{};
    const RankInputFn counted = [&](int rank) {
      ++fetches[static_cast<size_t>(rank)];
      std::vector<float> v(3001);
      for (size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<float>((i * 7 + static_cast<size_t>(rank)) % 101) * 0.01f;
      }
      return v;
    };
    JobConfig config;
    config.nranks = kRanks;
    config.abs_error_bound = 1e-3;
    config.algo = coll::AllreduceAlgo::kRing;  // kAuto would probe rank 0's input once more
    const JobResult clean = run_collective(k, Op::kAllreduce, config, counted);
    EXPECT_EQ(clean.attempts, 1);
    for (int r = 0; r < kRanks; ++r) EXPECT_EQ(fetches[static_cast<size_t>(r)], 1) << "rank " << r;

    for (std::atomic<int>& f : fetches) f = 0;
    config.retry.max_attempts = 3;
    config.faults.rank_faults = simmpi::FaultPlan::parse_rank_faults("crash@rank=2,op=5");
    const JobResult retried = run_collective(k, Op::kAllreduce, config, counted);
    ASSERT_EQ(retried.attempts, 2);
    EXPECT_EQ(retried.failed_ranks, std::vector<int>{2});
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(fetches[static_cast<size_t>(r)], r == 2 ? 1 : retried.attempts) << "rank " << r;
    }
    // The retry reduced the survivors' pristine inputs, not what the failed
    // attempt left in their storage.
    const std::vector<float> exact = exact_reduction(retried.final_group, counted);
    ASSERT_EQ(retried.rank0_output.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      ASSERT_NEAR(retried.rank0_output[i], exact[i], 1e-2) << "element " << i;
    }
  }
}

}  // namespace
}  // namespace hzccl
