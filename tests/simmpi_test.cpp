// simmpi runtime tests: point-to-point semantics, tag matching, barrier
// synchronization, virtual-clock accounting, the network/cost models, and
// failure propagation out of rank threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "hzccl/simmpi/costmodel.hpp"
#include "hzccl/simmpi/netmodel.hpp"
#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::simmpi {
namespace {

std::vector<uint8_t> bytes_of(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Runtime, PingPong) {
  Runtime rt(2, NetModel::omnipath_100g());
  std::string got;
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const auto payload = bytes_of("ping");
      comm.send(1, 7, payload);
      const auto back = comm.recv(1, 8);
      got.assign(back.begin(), back.end());
    } else {
      const auto msg = comm.recv(0, 7);
      EXPECT_EQ(std::string(msg.begin(), msg.end()), "ping");
      const auto payload = bytes_of("pong");
      comm.send(0, 8, payload);
    }
  });
  EXPECT_EQ(got, "pong");
}

TEST(Runtime, TagsDisambiguateMessages) {
  Runtime rt(2, NetModel::omnipath_100g());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const auto a = bytes_of("tagA");
      const auto b = bytes_of("tagB");
      comm.send(1, 1, a);
      comm.send(1, 2, b);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      const auto b = comm.recv(0, 2);
      const auto a = comm.recv(0, 1);
      EXPECT_EQ(std::string(b.begin(), b.end()), "tagB");
      EXPECT_EQ(std::string(a.begin(), a.end()), "tagA");
    }
  });
}

TEST(Runtime, SameTagPreservesFifoOrder) {
  Runtime rt(2, NetModel::omnipath_100g());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (uint8_t i = 0; i < 10; ++i) {
        const std::vector<uint8_t> payload = {i};
        comm.send(1, 0, payload);
      }
    } else {
      for (uint8_t i = 0; i < 10; ++i) {
        EXPECT_EQ(comm.recv(0, 0).at(0), i);
      }
    }
  });
}

TEST(Runtime, RingPassesTokenThroughAllRanks) {
  const int n = 16;
  Runtime rt(n, NetModel::omnipath_100g());
  int final_value = -1;
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<uint8_t> token = {0};
      comm.send(1, 0, token);
      const auto back = comm.recv(n - 1, 0);
      final_value = back[0];
    } else {
      auto token = comm.recv(comm.rank() - 1, 0);
      token[0]++;
      comm.send((comm.rank() + 1) % n, 0, token);
    }
  });
  EXPECT_EQ(final_value, n - 1);
}

TEST(Runtime, RecvIntoChecksSize) {
  Runtime rt(2, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 if (comm.rank() == 0) {
                   const std::vector<uint8_t> four(4, 1);
                   comm.send(1, 0, four);
                 } else {
                   std::vector<uint8_t> three(3);
                   comm.recv_into(0, 0, three);
                 }
               }),
               Error);
}

TEST(Runtime, FloatHelpersRoundTrip) {
  Runtime rt(2, NetModel::omnipath_100g());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<float> data = {1.5f, -2.5f, 3.25f};
      comm.send_floats(1, 3, data);
    } else {
      std::vector<float> got(3);
      comm.recv_floats_into(0, 3, got);
      EXPECT_EQ(got, (std::vector<float>{1.5f, -2.5f, 3.25f}));
    }
  });
}

TEST(Runtime, ExceptionInRankPropagates) {
  Runtime rt(4, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([](Comm& comm) {
                 if (comm.rank() == 2) throw hzccl::Error("rank 2 exploded");
                 // Other ranks block on a message that never comes; the
                 // abort path must wake and fail them instead of hanging.
                 if (comm.rank() == 0) comm.recv(2, 99);
               }),
               hzccl::Error);
}

TEST(Runtime, RunRethrowsTheRootCauseNotABystander) {
  // Rank 2 fails with its own error; ranks 0, 1 and 3 fail only because the
  // abort woke them from a receive nothing will satisfy.  The lower-ranked
  // bystanders' reports must not hide the error that caused the abort.
  Runtime rt(4, NetModel::omnipath_100g());
  try {
    rt.run([](Comm& comm) {
      if (comm.rank() == 2) throw hzccl::FormatError("rank 2: the root cause");
      comm.recv(2, 99);
    });
    FAIL() << "the run completed";
  } catch (const hzccl::FormatError& e) {
    EXPECT_STREQ(e.what(), "rank 2: the root cause");
  } catch (const std::exception& e) {
    FAIL() << "a bystander's error surfaced: " << e.what();
  }
}

TEST(Runtime, ExceptionDuringBarrierDoesNotHang) {
  Runtime rt(3, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([](Comm& comm) {
                 if (comm.rank() == 1) throw hzccl::Error("dead before barrier");
                 comm.barrier();
               }),
               hzccl::Error);
}

TEST(Runtime, ReusableAfterRun) {
  Runtime rt(2, NetModel::omnipath_100g());
  for (int round = 0; round < 3; ++round) {
    rt.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        const std::vector<uint8_t> payload = {static_cast<uint8_t>(round)};
        comm.send(1, round, payload);
      } else {
        EXPECT_EQ(comm.recv(0, round).at(0), round);
      }
    });
  }
}

TEST(Runtime, ReusableAfterAnAbortedBarrier) {
  // The first run aborts with two ranks waiting in a barrier at t = 1 s.  The
  // second run's barrier releases from its own arrivals (t = 0), not from
  // the aborted round's.
  Runtime rt(3, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([](Comm& comm) {
                 if (comm.rank() == 1) throw hzccl::Error("rank 1 fails before the barrier");
                 comm.clock().advance(1.0, CostBucket::kCpt);
                 comm.barrier();
               }),
               hzccl::Error);
  const auto reports = rt.run([](Comm& comm) { comm.barrier(); });
  EXPECT_LT(Runtime::slowest(reports).total_seconds, 1e-3);
}

TEST(Runtime, BadRankArgumentsThrow) {
  Runtime rt(2, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   const std::vector<uint8_t> p = {1};
                   comm.send(5, 0, p);
                 }
               }),
               hzccl::Error);
  EXPECT_THROW(Runtime(0, NetModel::omnipath_100g()), hzccl::Error);
}

// --- virtual clock semantics --------------------------------------------------

TEST(VirtualClockTest, BucketsAccumulate) {
  VirtualClock clock;
  clock.advance(1.0, CostBucket::kCpr);
  clock.advance(2.0, CostBucket::kMpi);
  clock.advance(-5.0, CostBucket::kMpi);  // negative is a no-op
  const ClockReport r = clock.report();
  EXPECT_DOUBLE_EQ(r.total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(r[CostBucket::kCpr], 1.0);
  EXPECT_DOUBLE_EQ(r[CostBucket::kMpi], 2.0);
  EXPECT_DOUBLE_EQ(r.percent(CostBucket::kMpi), 200.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.doc_related(), 1.0);
}

TEST(VirtualClockTest, AdvanceToIsMonotone) {
  VirtualClock clock;
  clock.advance_to(5.0, CostBucket::kMpi);
  clock.advance_to(3.0, CostBucket::kMpi);  // already past: no-op
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

TEST(Runtime, ReceiverWaitsForSenderVirtualTime) {
  // Rank 1 burns 1 virtual second before sending; rank 0's receive cannot
  // complete before that plus the transfer time.
  NetModel net = NetModel::omnipath_100g();
  Runtime rt(2, net);
  const size_t bytes = 1 << 20;
  double recv_done = 0.0;
  auto reports = rt.run([&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.clock().advance(1.0, CostBucket::kCpt);
      const std::vector<uint8_t> payload(bytes, 0);
      comm.send(0, 0, payload);
    } else {
      comm.recv(0 + 1, 0);
      recv_done = comm.clock().now();
    }
  });
  EXPECT_GE(recv_done, 1.0 + net.transfer_seconds(bytes, 2));
  EXPECT_LE(recv_done, 1.0 + net.transfer_seconds(bytes, 2) + 1e-3);
  EXPECT_GE(Runtime::slowest(reports).total_seconds, recv_done);
}

TEST(Runtime, BarrierAlignsVirtualClocks) {
  Runtime rt(4, NetModel::omnipath_100g());
  std::vector<double> after(4, 0.0);
  rt.run([&](Comm& comm) {
    comm.clock().advance(0.1 * (comm.rank() + 1), CostBucket::kCpt);
    comm.barrier();
    after[comm.rank()] = comm.clock().now();
  });
  for (int r = 0; r < 4; ++r) EXPECT_NEAR(after[r], after[3], 1e-12);
  EXPECT_GE(after[0], 0.4);  // slowest arrival dominates
}

// --- net & cost models ----------------------------------------------------------

TEST(NetModelTest, TransferTimeScalesWithBytes) {
  const NetModel net = NetModel::omnipath_100g();
  EXPECT_GT(net.transfer_seconds(1 << 20, 2), net.transfer_seconds(1 << 10, 2));
  EXPECT_NEAR(net.transfer_seconds(0, 2), net.latency_s, 1e-15);
}

TEST(NetModelTest, CongestionReducesBandwidthAndSaturates) {
  const NetModel net = NetModel::omnipath_100g();
  EXPECT_LT(net.effective_bytes_per_s(64), net.effective_bytes_per_s(2));
  EXPECT_LT(net.effective_bytes_per_s(512), net.effective_bytes_per_s(64));
  // Saturating curve: 512 -> 1024 changes far less than 2 -> 64.
  const double low = net.effective_bytes_per_s(2) - net.effective_bytes_per_s(64);
  const double high = net.effective_bytes_per_s(512) - net.effective_bytes_per_s(1024);
  EXPECT_GT(low, 10.0 * high);
  // Calibration anchor: per-flow bandwidth at full saturation lands in the
  // regime the paper's 512-node tail implies (~1-2 GB/s).
  EXPECT_GT(net.effective_bytes_per_s(512), 1e9);
  EXPECT_LT(net.effective_bytes_per_s(512), 3e9);
}

TEST(Runtime, TracksTrafficCounters) {
  Runtime rt(2, NetModel::omnipath_100g());
  std::vector<uint64_t> sent(2), received(2);
  rt.run([&](Comm& comm) {
    const std::vector<uint8_t> payload(100, 1);
    if (comm.rank() == 0) {
      comm.send(1, 0, payload);
      comm.recv(1, 1);
    } else {
      comm.recv(0, 0);
      comm.send(0, 1, std::span<const uint8_t>(payload.data(), 42));
    }
    sent[comm.rank()] = comm.bytes_sent();
    received[comm.rank()] = comm.bytes_received();
  });
  EXPECT_EQ(sent[0], 100u);
  EXPECT_EQ(received[0], 42u);
  EXPECT_EQ(sent[1], 42u);
  EXPECT_EQ(received[1], 100u);
}

TEST(CostModelTest, SingleThreadIsSlower) {
  const CostModel cost = CostModel::paper_broadwell();
  const size_t bytes = 100 << 20;
  EXPECT_GT(cost.seconds_fz_compress(bytes, Mode::kSingleThread),
            cost.seconds_fz_compress(bytes, Mode::kMultiThread));
}

TEST(CostModelTest, HzAddChargesByPipelineMix) {
  const CostModel cost = CostModel::paper_broadwell();
  hzccl::HzPipelineStats all_p1, all_p4;
  all_p1.p1 = 1000;
  all_p4.p4 = 1000;
  all_p4.p4_elements = 32000;
  EXPECT_LT(cost.seconds_hz_add(all_p1, 32, Mode::kMultiThread),
            cost.seconds_hz_add(all_p4, 32, Mode::kMultiThread));
}

TEST(CostModelTest, HzAddIsCheaperThanDocForTypicalMix) {
  // The inequality the whole co-design rests on: HPR << DPR + CPT + CPR.
  const CostModel cost = CostModel::paper_broadwell();
  const size_t elements = 1 << 20;
  const size_t bytes = elements * sizeof(float);
  hzccl::HzPipelineStats mixed;
  mixed.p1 = elements / 32 / 2;
  mixed.p4 = elements / 32 / 2;
  mixed.p4_elements = elements / 2;
  const double hpr = cost.seconds_hz_add(mixed, 32, Mode::kMultiThread);
  const double doc = 2 * cost.seconds_fz_decompress(bytes, Mode::kMultiThread) +
                     cost.seconds_raw_sum(bytes, Mode::kMultiThread) +
                     cost.seconds_fz_compress(bytes, Mode::kMultiThread);
  EXPECT_LT(hpr, doc);
}

TEST(CostModelTest, HostCalibrationProducesPositiveRates) {
  const CostModel cost = CostModel::calibrated_from_host(4, 0.8);
  EXPECT_GT(cost.fz_compress_gbps, 0.0);
  EXPECT_GT(cost.fz_decompress_gbps, 0.0);
  EXPECT_GT(cost.raw_sum_gbps, 0.0);
  EXPECT_GT(cost.thread_scaling, 1.0);
}

TEST(BucketNames, AllNamed) {
  EXPECT_EQ(bucket_name(CostBucket::kMpi), "MPI");
  EXPECT_EQ(bucket_name(CostBucket::kCpr), "CPR");
  EXPECT_EQ(bucket_name(CostBucket::kDpr), "DPR");
  EXPECT_EQ(bucket_name(CostBucket::kCpt), "CPT");
  EXPECT_EQ(bucket_name(CostBucket::kHpr), "HPR");
  EXPECT_EQ(bucket_name(CostBucket::kOther), "OTHER");
}

}  // namespace
}  // namespace hzccl::simmpi
