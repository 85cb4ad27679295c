// Tests for the data-movement collectives: binomial broadcast/gather across
// roots and rank counts (including non-powers-of-two), the compressed
// broadcast's accuracy + all-ranks-identical contract, and the logarithmic
// latency advantage the tree exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "hzccl/collectives/movement.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

using coll::CollectiveConfig;
using simmpi::NetModel;
using simmpi::Runtime;

class BcastSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BcastSweep, EveryRankReceivesRootData) {
  const auto [nranks, root_seed] = GetParam();
  const int root = root_seed % nranks;
  const std::vector<float> payload = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  CollectiveConfig cc;
  Runtime rt(nranks, NetModel::omnipath_100g());
  std::vector<std::vector<float>> results(nranks);
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == root) data = payload;
    coll::raw_bcast(comm, data, root, cc);
    results[comm.rank()] = std::move(data);
  });
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(results[r], payload) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(RootsAndSizes, BcastSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13),
                                            ::testing::Values(0, 1, 2)),
                         [](const auto& pinfo) {
                           // Root seeds are taken modulo nranks in the body; keep the raw
                           // seed in the name so small rank counts stay unique.
                           return "n" + std::to_string(std::get<0>(pinfo.param)) + "_rootseed" +
                                  std::to_string(std::get<1>(pinfo.param));
                         });

TEST(Movement, BcastRootBeyondSizeWraps) {
  // Parameterized roots are taken modulo nranks inside the sweep; check an
  // explicit mid-rank root on a non-power-of-two count here.
  const int n = 6, root = 4;
  const std::vector<float> payload(777, 3.5f);
  CollectiveConfig cc;
  Runtime rt(n, NetModel::omnipath_100g());
  std::vector<std::vector<float>> results(n);
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == root) data = payload;
    coll::raw_bcast(comm, data, root, cc);
    results[comm.rank()] = std::move(data);
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(results[r], payload);
}

TEST(Movement, CompressedBcastIsAccurateAndIdenticalEverywhere) {
  const int n = 7, root = 2;
  const std::vector<float> payload = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  CollectiveConfig cc;
  cc.abs_error_bound = abs_bound_from_rel(payload, 1e-3);
  Runtime rt(n, NetModel::omnipath_100g());
  std::vector<std::vector<float>> results(n);
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == root) data = payload;
    coll::ccoll_bcast(comm, data, root, cc);
    results[comm.rank()] = std::move(data);
  });
  // eb-accurate at every rank...
  const ErrorStats err = compare(payload, results[0]);
  EXPECT_LE(err.max_abs_err, cc.abs_error_bound * (1 + 1e-5) +
                                 1.2e-7 * std::max(std::abs(err.min), std::abs(err.max)));
  // ...and bit-identical across ranks, root included.
  for (int r = 1; r < n; ++r) EXPECT_EQ(results[r], results[0]) << "rank " << r;
}

TEST(Movement, CompressedBcastMovesFewerBytes) {
  const int n = 8;
  const std::vector<float> payload = generate_field(DatasetId::kRtmSim2, Scale::kTiny, 0);
  CollectiveConfig cc;
  cc.abs_error_bound = abs_bound_from_rel(payload, 1e-3);
  Runtime rt(n, NetModel::omnipath_100g());
  std::atomic<uint64_t> raw_bytes{0}, ccoll_bytes{0};
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == 0) data = payload;
    coll::raw_bcast(comm, data, 0, cc);
    raw_bytes += comm.bytes_sent();
  });
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == 0) data = payload;
    coll::ccoll_bcast(comm, data, 0, cc);
    ccoll_bytes += comm.bytes_sent();
  });
  EXPECT_LT(ccoll_bytes.load() * 5, raw_bytes.load());  // ratio >> 5 on RTM data
}

TEST(Movement, GatherConcatenatesInRankOrder) {
  for (int n : {1, 2, 3, 6, 8}) {
    for (int root : {0, n - 1}) {
      const size_t chunk = 37;
      CollectiveConfig cc;
      Runtime rt(n, NetModel::omnipath_100g());
      std::vector<std::vector<float>> results(n);
      rt.run([&](simmpi::Comm& comm) {
        std::vector<float> mine(chunk, static_cast<float>(comm.rank() + 1));
        coll::raw_gather(comm, mine, root, results[comm.rank()], cc);
      });
      for (int r = 0; r < n; ++r) {
        if (r != root) {
          EXPECT_TRUE(results[r].empty());
          continue;
        }
        ASSERT_EQ(results[r].size(), chunk * static_cast<size_t>(n));
        for (int owner = 0; owner < n; ++owner) {
          for (size_t i = 0; i < chunk; ++i) {
            ASSERT_FLOAT_EQ(results[r][owner * chunk + i], static_cast<float>(owner + 1))
                << "n=" << n << " root=" << root;
          }
        }
      }
    }
  }
}

TEST(Movement, GatherRejectsUnequalChunkSizes) {
  // Each parent checks a subtree's payload against its own contribution:
  // rank 1 contributing one float too many, or the root contributing none
  // while rank 1 sends floats, fails at the root (rank 1's parent).
  const int n = 4, root = 0;
  for (const bool empty_root : {false, true}) {
    SCOPED_TRACE(empty_root ? "empty root" : "one float too many");
    CollectiveConfig cc;
    Runtime rt(n, NetModel::omnipath_100g());
    try {
      rt.run([&](simmpi::Comm& comm) {
        size_t chunk = 4;
        if (!empty_root && comm.rank() == 1) chunk = 5;
        if (empty_root && comm.rank() == root) chunk = 0;
        const std::vector<float> mine(chunk, 1.0f);
        std::vector<float> out;
        coll::raw_gather(comm, mine, root, out, cc);
      });
      ADD_FAILURE() << "no error raised";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "raw_gather: ranks contributed unequal chunk sizes");
    }
  }
}

TEST(Movement, BinomialLatencyScalesLogarithmically) {
  // Tree depth ceil(log2 P): quadrupling P adds ~2 alpha terms, not ~3P.
  CollectiveConfig cc;
  auto seconds = [&](int n) {
    Runtime rt(n, NetModel::omnipath_100g());
    std::vector<float> payload(16, 1.0f);  // alpha-dominated
    auto reports = rt.run([&](simmpi::Comm& comm) {
      std::vector<float> data;
      if (comm.rank() == 0) data = payload;
      coll::raw_bcast(comm, data, 0, cc);
    });
    return Runtime::slowest(reports).total_seconds;
  };
  const double t8 = seconds(8);
  const double t32 = seconds(32);
  EXPECT_LT(t32, 2.5 * t8);  // log growth, far below the 4x of a chain
}

}  // namespace
}  // namespace hzccl
