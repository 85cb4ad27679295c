// Parity tier: one job on a lone sched::Engine against run_collective under
// every kind of fault plan: rank faults, each link fault alone, wire SDC,
// and link faults mixed with a crash.
//
// Both executors drive one rank-failure control plane
// (simmpi/control_plane.hpp), one link layer (simmpi/link.hpp) and keep
// every rank's timeline in one simmpi::Endpoint (simmpi/endpoint.hpp),
// which performs, traces and counts each charge a rank makes.  A one-job
// engine whose fleet is the job's ranks must therefore reproduce the
// blocking job exactly — the output bytes or the same failure, the
// attempts, failed ranks and final group, every rank's clock (total and
// each bucket), its health and transport counters, the job's transport and
// integrity counters, and every rank's whole event stream, span by span,
// apart from the job attribution only the engine records.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/sched/engine.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/trace/trace.hpp"

namespace hzccl {
namespace {

using coll::AllreduceAlgo;
using sched::Engine;
using sched::EngineConfig;
using sched::ICollOp;
using sched::JobOutcome;
using simmpi::FaultPlan;
using simmpi::NetModel;

constexpr size_t kElements = 4096;

/// One (stack, schedule, size) cell; the test body sweeps every plan.
struct ParityCase {
  Kernel kernel;
  ICollOp op;
  AllreduceAlgo algo;
  int nranks;
};

std::string stack_name(Kernel k) {
  switch (k) {
    case Kernel::kMpi: return "MPI";
    case Kernel::kCCollMultiThread: return "CColl";
    default: return "hZ";
  }
}

std::string case_name(const ParityCase& c) {
  return stack_name(c.kernel) + "_" +
         (c.op == ICollOp::kReduceScatter ? std::string("rs")
                                          : std::string(coll::allreduce_algo_name(c.algo))) +
         "_n" + std::to_string(c.nranks);
}

void PrintTo(const ParityCase& c, std::ostream* os) { *os << case_name(c); }

/// A plan of the sweep: its --rank-faults schedule ("" = none), the retry
/// budget, the digest verify policy and its --faults link plan ("" = a
/// clean wire).
struct Plan {
  const char* schedule;
  int max_attempts;
  coll::VerifyPolicy verify = coll::VerifyPolicy::kOff;
  const char* link = "";
};

/// seed,drop,corrupt,reorder,dup,stall,mangle: every link fault at once.
constexpr const char* kMixedLink = "8,0.05,0.03,0.1,0.05,0.05,0.05";

const Plan kPlans[] = {
    {"", 3},
    {"", 3, coll::VerifyPolicy::kPerRound},
    {"straggler@rank=3,x=4", 3},
    {"crash@rank=2,op=1", 3},
    {"crash@rank=2,op=5", 3},
    {"crash@rank=2,op=9", 3},
    {"hang@rank=2,op=5", 3},
    {"crash@rank=0,op=3", 3},
    {"crash@rank=2,op=5;straggler@rank=3,x=4", 3},
    // Rank 4's 13th operation falls in the retry (or the shrink before it).
    {"crash@rank=2,op=5;crash@rank=4,op=13", 3},
    {"crash@rank=2,op=5", 1},
    // Each link fault alone, wire SDC under per-round verification, all of
    // them at once, and all of them with a crash.
    {"", 1, coll::VerifyPolicy::kOff, "3,0.1"},
    {"", 1, coll::VerifyPolicy::kOff, "3,0,0.1"},
    {"", 1, coll::VerifyPolicy::kOff, "3,0,0,0.3"},
    {"", 1, coll::VerifyPolicy::kOff, "3,0,0,0,0.1"},
    {"", 1, coll::VerifyPolicy::kOff, "3,0,0,0,0,0.1"},
    {"", 1, coll::VerifyPolicy::kOff, "3,0,0,0,0,0,0.1"},
    {"", 1, coll::VerifyPolicy::kPerRound, "3,0,0,0,0,0,0,50e-6,200e-6,0.1"},
    {"", 1, coll::VerifyPolicy::kOff, kMixedLink},
    {"crash@rank=2,op=5", 3, coll::VerifyPolicy::kOff, kMixedLink},
};

/// Rank inputs from the Hurricane field, generated once per rank (rank
/// threads call in concurrently).
RankInputFn hurricane_inputs() {
  struct Cache {
    std::mutex mutex;
    std::map<int, std::vector<float>> fields;
  };
  auto cache = std::make_shared<Cache>();
  return [cache](int rank) {
    const std::lock_guard<std::mutex> lock(cache->mutex);
    auto it = cache->fields.find(rank);
    if (it == cache->fields.end()) {
      std::vector<float> f =
          generate_field(DatasetId::kHurricane, Scale::kTiny, static_cast<uint32_t>(rank));
      f.resize(kElements, 0.25f * static_cast<float>(rank + 1));
      it = cache->fields.emplace(rank, std::move(f)).first;
    }
    return it->second;
  };
}

/// Every field of an event but its job attribution.
struct Span {
  trace::EventKind kind;
  double t0, t1;
  uint64_t seq, bytes, bytes_out;
  int32_t peer, tag;
  uint8_t aux;
  bool operator==(const Span&) const = default;
};

void PrintTo(const Span& s, std::ostream* os) {
  *os << trace::kind_name(s.kind) << " [" << s.t0 << ", " << s.t1 << "] seq " << s.seq
      << " bytes " << s.bytes << "/" << s.bytes_out << " peer " << s.peer << " tag " << s.tag
      << " aux " << static_cast<int>(s.aux);
}

std::vector<Span> spans(const std::vector<trace::Event>& events) {
  std::vector<Span> out;
  for (const trace::Event& e : events) {
    out.push_back({e.kind, e.t0, e.t1, e.seq, e.bytes, e.bytes_out, e.peer, e.tag, e.aux});
  }
  return out;
}

void expect_same_health(const HealthStats& a, const HealthStats& b, const std::string& at) {
  EXPECT_EQ(a.crashes, b.crashes) << at;
  EXPECT_EQ(a.hangs, b.hangs) << at;
  EXPECT_EQ(a.straggles, b.straggles) << at;
  EXPECT_EQ(a.suspects, b.suspects) << at;
  EXPECT_EQ(a.dead_declared, b.dead_declared) << at;
  EXPECT_EQ(a.agreements, b.agreements) << at;
  EXPECT_EQ(a.failed_agreements, b.failed_agreements) << at;
  EXPECT_EQ(a.stale_discards, b.stale_discards) << at;
  EXPECT_EQ(a.shrinks, b.shrinks) << at;
  EXPECT_EQ(a.retries, b.retries) << at;
}

void expect_same_transport(const TransportStats& a, const TransportStats& b,
                           const std::string& at) {
  EXPECT_EQ(a.frames_sent, b.frames_sent) << at;
  EXPECT_EQ(a.frames_accepted, b.frames_accepted) << at;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << at;
  EXPECT_EQ(a.retransmits, b.retransmits) << at;
  EXPECT_EQ(a.corrupt_frames, b.corrupt_frames) << at;
  EXPECT_EQ(a.duplicate_discards, b.duplicate_discards) << at;
  EXPECT_EQ(a.timeout_waits, b.timeout_waits) << at;
  EXPECT_EQ(a.raw_fallbacks, b.raw_fallbacks) << at;
  EXPECT_EQ(a.stalls, b.stalls) << at;
}

void expect_same_integrity(const IntegrityStats& a, const IntegrityStats& b) {
  EXPECT_EQ(a.digests_checked, b.digests_checked);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.retransmit_recoveries, b.retransmit_recoveries);
  EXPECT_EQ(a.recomputes, b.recomputes);
  EXPECT_EQ(a.raw_fallbacks, b.raw_fallbacks);
  EXPECT_EQ(a.poisoned_combines, b.poisoned_combines);
}

class EngineParity : public testing::TestWithParam<ParityCase> {};

TEST_P(EngineParity, OneJobEngineEqualsRunCollective) {
  const ParityCase p = GetParam();
  const NetModel net = p.algo == AllreduceAlgo::kTwoLevel ? NetModel::omnipath_100g_nodes(4)
                                                          : NetModel::omnipath_100g();
  const RankInputFn input = hurricane_inputs();
  for (const Plan& plan : kPlans) {
    SCOPED_TRACE(std::string("plan '") + plan.schedule + "' link '" + plan.link +
                 "' max_attempts " + std::to_string(plan.max_attempts) + " verify " +
                 coll::verify_policy_name(plan.verify));
    JobConfig config;
    config.nranks = p.nranks;
    config.net = net;
    config.abs_error_bound = 1e-3;
    config.algo = p.algo;
    config.retry.max_attempts = plan.max_attempts;
    config.verify = plan.verify;
    config.trace.enabled = true;
    if (*plan.link != '\0') config.faults = FaultPlan::parse(plan.link);
    if (*plan.schedule != '\0') {
      config.faults.rank_faults = FaultPlan::parse_rank_faults(plan.schedule);
    }

    EngineConfig ec;
    ec.fleet_ranks = p.nranks;
    ec.net = net;
    ec.faults = config.faults;
    ec.trace.enabled = true;
    Engine engine(ec);
    const sched::Request req = engine.submit(p.kernel, p.op, config, input);
    engine.run();
    const JobOutcome& got = engine.outcome(req);

    const Op op = p.op == ICollOp::kAllreduce ? Op::kAllreduce : Op::kReduceScatter;
    JobResult want;
    try {
      want = run_collective(p.kernel, op, config, input);
    } catch (const simmpi::RankFailedError& e) {
      // The blocking job failed for good: the engine job fails over the
      // same lost ranks.
      EXPECT_FALSE(got.completed);
      EXPECT_EQ(got.failed_ranks, e.failed_ranks());
      EXPECT_EQ(got.attempts, plan.max_attempts);
      continue;
    }
    ASSERT_TRUE(got.completed) << got.error;
    if (*plan.link != '\0') {
      EXPECT_FALSE(want.transport.clean()) << "the link plan fired nothing";
    }
    EXPECT_EQ(got.rank0_output, want.rank0_output);
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(got.failed_ranks, want.failed_ranks);
    EXPECT_EQ(got.final_group, want.final_group);
    EXPECT_EQ(got.complete_vtime, want.slowest.total_seconds);

    const std::vector<simmpi::ClockReport> clocks = engine.clock_reports();
    const std::vector<HealthStats> health = engine.health_stats();
    const std::vector<TransportStats> transport = engine.transport_stats();
    const trace::Trace trace = engine.trace();
    for (int r = 0; r < p.nranks; ++r) {
      const auto ur = static_cast<size_t>(r);
      const std::string at = "rank " + std::to_string(r);
      EXPECT_EQ(clocks[ur].total_seconds, want.per_rank[ur].total_seconds) << at;
      EXPECT_EQ(clocks[ur].bucket_seconds, want.per_rank[ur].bucket_seconds) << at;
      expect_same_health(health[ur], want.health_per_rank[ur], at);
      expect_same_transport(transport[ur], want.transport_per_rank[ur], at);
      EXPECT_EQ(spans(trace.ranks[ur]), spans(want.trace.ranks[ur])) << at;
    }
    expect_same_transport(got.transport, want.transport, "job");
    expect_same_integrity(got.integrity, want.integrity);
    if (HasFailure()) return;
  }
}

std::vector<ParityCase> parity_matrix() {
  std::vector<ParityCase> cases;
  for (const int n : {6, 8}) {
    for (const Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
      cases.push_back({k, ICollOp::kReduceScatter, AllreduceAlgo::kRing, n});
      cases.push_back({k, ICollOp::kAllreduce, AllreduceAlgo::kRing, n});
      if (k == Kernel::kCCollMultiThread) continue;  // C-Coll always rings
      for (const AllreduceAlgo a : {AllreduceAlgo::kRecursiveDoubling,
                                    AllreduceAlgo::kRabenseifner, AllreduceAlgo::kTwoLevel}) {
        cases.push_back({k, ICollOp::kAllreduce, a, n});
      }
    }
  }
  return cases;
}

std::string parity_name(const testing::TestParamInfo<ParityCase>& info) {
  return case_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineParity, testing::ValuesIn(parity_matrix()), parity_name);

// The second crash of the sweep fires in the retry: both crashes are lost,
// and the job needs its whole retry budget.
TEST(EngineParity, SecondCrashFiresInTheRetry) {
  for (const Kernel k : {Kernel::kMpi, Kernel::kHzcclMultiThread}) {
    JobConfig config;
    config.nranks = 6;
    config.abs_error_bound = 1e-3;
    config.retry.max_attempts = 3;
    config.faults.rank_faults =
        FaultPlan::parse_rank_faults("crash@rank=2,op=5;crash@rank=4,op=13");
    const JobResult r = run_collective(k, Op::kAllreduce, config, hurricane_inputs());
    EXPECT_EQ(r.failed_ranks, (std::vector<int>{2, 4}));
    EXPECT_EQ(r.attempts, 3);
  }
}

}  // namespace
}  // namespace hzccl
