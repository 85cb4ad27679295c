// Tests for the alternative Allreduce algorithms (recursive doubling,
// Rabenseifner): exact agreement with the reference reduction across rank
// counts including non-powers-of-two, reduce-op support, and the
// latency/bandwidth crossover the algorithm choice exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hzccl/collectives/algorithms.hpp"
#include "hzccl/collectives/raw.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"

namespace hzccl {
namespace {

using coll::CollectiveConfig;
using simmpi::NetModel;
using simmpi::Runtime;

RankInputFn make_inputs(size_t elements) {
  return [elements](int rank) {
    std::vector<float> f = generate_field(DatasetId::kHurricane, Scale::kTiny,
                                          static_cast<uint32_t>(rank));
    f.resize(elements);
    return f;
  };
}

using AllreduceFn = void (*)(simmpi::Comm&, std::span<const float>, std::vector<float>&,
                             const CollectiveConfig&);

struct AlgoCase {
  AllreduceFn fn;
  const char* name;
  int nranks;
};

// Without a printer gtest dumps the raw bytes, which hold code addresses that
// move with ASLR and so make the discovered test names differ per build.
void PrintTo(const AlgoCase& c, std::ostream* os) { *os << c.name << " N=" << c.nranks; }

class AlgoSweepTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AlgoSweepTest, MatchesExactReduction) {
  const AlgoCase c = GetParam();
  const size_t elements = 3000;  // odd sizes exercise uneven halving
  const RankInputFn inputs = make_inputs(elements);
  const std::vector<float> exact = exact_reduction(c.nranks, inputs);

  CollectiveConfig cc;
  Runtime rt(c.nranks, NetModel::omnipath_100g());
  std::vector<std::vector<float>> outputs(c.nranks);
  rt.run([&](simmpi::Comm& comm) {
    c.fn(comm, inputs(comm.rank()), outputs[comm.rank()], cc);
  });
  for (int r = 0; r < c.nranks; ++r) {
    ASSERT_EQ(outputs[r].size(), elements) << c.name << " rank " << r;
    for (size_t i = 0; i < elements; ++i) {
      // Raw float arithmetic: only association-order rounding separates the
      // algorithms from the double-accumulated reference.
      ASSERT_NEAR(outputs[r][i], exact[i], 1e-3)
          << c.name << " N=" << c.nranks << " rank " << r << " i=" << i;
    }
  }
}

std::vector<AlgoCase> algo_cases() {
  std::vector<AlgoCase> cases;
  for (int n : {1, 2, 3, 4, 5, 7, 8, 16}) {
    cases.push_back({&coll::raw_allreduce_recursive_doubling, "rd", n});
    cases.push_back({&coll::raw_allreduce_rabenseifner, "rab", n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCounts, AlgoSweepTest, ::testing::ValuesIn(algo_cases()),
                         [](const auto& pinfo) {
                           return std::string(pinfo.param.name) + "_n" +
                                  std::to_string(pinfo.param.nranks);
                         });

TEST(Algorithms, RecursiveDoublingSupportsMinMax) {
  const int n = 6;  // non-power-of-two with folding
  const size_t elements = 500;
  const RankInputFn inputs = make_inputs(elements);
  std::vector<float> ref = inputs(0);
  for (int r = 1; r < n; ++r) {
    const auto f = inputs(r);
    for (size_t i = 0; i < elements; ++i) ref[i] = std::max(ref[i], f[i]);
  }
  CollectiveConfig cc;
  cc.reduce_op = coll::ReduceOp::kMax;
  Runtime rt(n, NetModel::omnipath_100g());
  std::vector<std::vector<float>> outputs(n);
  rt.run([&](simmpi::Comm& comm) {
    coll::raw_allreduce_recursive_doubling(comm, inputs(comm.rank()), outputs[comm.rank()],
                                           cc);
  });
  for (size_t i = 0; i < elements; ++i) ASSERT_FLOAT_EQ(outputs[2][i], ref[i]);
}

TEST(Algorithms, LatencyBandwidthCrossover) {
  // The reason MPICH switches algorithms: recursive doubling (log2 P latency
  // terms, full-vector bandwidth) must beat the ring (P latency terms) on
  // tiny messages and lose to it on large ones.
  const int n = 16;
  CollectiveConfig cc;

  auto modeled_seconds = [&](AllreduceFn fn, size_t elements) {
    const RankInputFn inputs = make_inputs(elements);
    Runtime rt(n, NetModel::omnipath_100g());
    auto reports = rt.run([&](simmpi::Comm& comm) {
      std::vector<float> out;
      fn(comm, inputs(comm.rank()), out, cc);
    });
    return Runtime::slowest(reports).total_seconds;
  };

  const size_t tiny = 64, large = 1 << 18;
  EXPECT_LT(modeled_seconds(&coll::raw_allreduce_recursive_doubling, tiny),
            modeled_seconds(&coll::raw_allreduce, tiny));
  EXPECT_LT(modeled_seconds(&coll::raw_allreduce, large),
            modeled_seconds(&coll::raw_allreduce_recursive_doubling, large));
  // Rabenseifner: ring-class bandwidth with log latency — never worse than
  // recursive doubling at large sizes.
  EXPECT_LT(modeled_seconds(&coll::raw_allreduce_rabenseifner, large),
            modeled_seconds(&coll::raw_allreduce_recursive_doubling, large));
}

}  // namespace
}  // namespace hzccl
