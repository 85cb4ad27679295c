// Property tests for the multi-tenant scheduler tier:
//
//   * determinism — same seed + job mix replays identical completion times
//     and a byte-identical trace, with and without rank faults, and with
//     every link fault at once on three tenants' overlapping jobs;
//   * fusion — gradient-bucket super-jobs split back into member results
//     that stay within the collective's error bound, the window/threshold
//     rules decide who fuses, and lifecycle markers keep their order;
//   * no-starvation — priority aging bounds how long an adversarial stream
//     of high-QoS jobs can hold back a low-QoS tenant;
//   * fair-share accounting — contention changes virtual time, never bytes:
//     per-job transport reconciles with the per-rank TransportStats (under
//     link faults too), jobs sharing a rank draw from its one stall die,
//     and heavier-weighted flows finish first on contended links;
//   * recovery under concurrency — a rank crash with three overlapping
//     in-flight jobs shrinks every affected job to the survivors, replays
//     the blocking shrink-and-retry bytes, and keeps epochs and the trace
//     invariants consistent;
//   * a golden 3-tenant trace pins the whole pipeline byte-for-byte
//     (regenerate with HZCCL_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/sched/engine.hpp"
#include "hzccl/sched/scheduler.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/netmodel.hpp"
#include "hzccl/trace/export.hpp"
#include "hzccl/trace/trace.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

using coll::AllreduceAlgo;
using sched::Engine;
using sched::EngineConfig;
using sched::ICollOp;
using sched::JobOutcome;
using sched::Request;
using sched::Scheduler;
using sched::SchedulerConfig;
using sched::SubmitOptions;
using sched::TenantJobResult;
using sched::TenantJobSpec;
using sched::TenantUsage;
using simmpi::FaultPlan;
using simmpi::NetModel;
using simmpi::RankFault;
using simmpi::RankFaultKind;

std::span<const uint8_t> bytes_of_string(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

RankInputFn dataset_input(DatasetId id, size_t elements, uint32_t salt = 0) {
  return [id, elements, salt](int rank) {
    std::vector<float> f = generate_field(id, Scale::kTiny, static_cast<uint32_t>(rank) + salt);
    f.resize(elements, 0.5f * static_cast<float>(rank + 1));
    return f;
  };
}

/// Deterministic ramp inputs — value-independent of libm, used where a
/// checked-in golden file must replay on every machine.
RankInputFn ramp_input(size_t elements, float scale) {
  return [elements, scale](int rank) {
    std::vector<float> v(elements);
    for (size_t i = 0; i < elements; ++i) {
      v[i] = scale * static_cast<float>(rank + 1) +
             0.001f * static_cast<float>(i % 97);
    }
    return v;
  };
}

/// seed,drop,corrupt,reorder,dup,stall,mangle: every link fault at once.
constexpr const char* kMixedLink = "8,0.05,0.03,0.1,0.05,0.05,0.05";

JobConfig job_config(int nranks, const NetModel& net,
                     AllreduceAlgo algo = AllreduceAlgo::kRing) {
  JobConfig c;
  c.nranks = nranks;
  c.net = net;
  c.abs_error_bound = 1e-3;
  c.algo = algo;
  return c;
}

// ---------------------------------------------------------------------------
// 1. Determinism: same seed + mix => identical completion times and traces.
// ---------------------------------------------------------------------------

struct EngineRunResult {
  std::vector<JobOutcome> outcomes;
  double makespan = 0.0;
  std::string trace_json;
};

/// A mixed workload of overlapping jobs; `faulty` schedules a mid-flight
/// crash of fleet rank 5.
EngineRunResult run_reference_mix(uint64_t seed, bool faulty) {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  EngineConfig ec;
  ec.fleet_ranks = 12;
  ec.net = net;
  ec.seed = seed;
  ec.trace.enabled = true;
  if (faulty) {
    RankFault crash;
    crash.kind = RankFaultKind::kCrash;
    crash.rank = 5;
    crash.after_ops = 9;
    ec.faults.rank_faults.push_back(crash);
  }
  Engine engine(ec);

  simmpi::RetryPolicy retry;
  retry.max_attempts = 3;

  std::vector<Request> requests;
  {
    JobConfig c = job_config(8, net);
    c.retry = retry;
    requests.push_back(engine.iallreduce(Kernel::kHzcclSingleThread, c,
                                         dataset_input(DatasetId::kCesmAtm, 2048, 1)));
  }
  {
    JobConfig c = job_config(8, net, AllreduceAlgo::kRecursiveDoubling);
    c.retry = retry;
    SubmitOptions opt;
    opt.first_rank = 4;
    opt.priority = 0;
    requests.push_back(engine.iallreduce(Kernel::kMpi, c,
                                         dataset_input(DatasetId::kNyx, 1500, 2), opt));
  }
  {
    JobConfig c = job_config(6, net);
    c.retry = retry;
    SubmitOptions opt;
    opt.first_rank = 3;
    opt.enqueue_vtime = 2e-6;
    opt.weight = 2.0;
    requests.push_back(engine.ireduce_scatter(Kernel::kCCollSingleThread, c,
                                              dataset_input(DatasetId::kHurricane, 1800, 3),
                                              opt));
  }
  engine.run();

  EngineRunResult r;
  for (const Request& req : requests) r.outcomes.push_back(engine.outcome(req));
  r.makespan = engine.makespan();
  r.trace_json = trace::to_chrome_json(engine.trace());
  return r;
}

TEST(SchedDeterminism, SameSeedReplaysCompletionTimesAndTraceBytes) {
  for (const bool faulty : {false, true}) {
    const EngineRunResult a = run_reference_mix(/*seed=*/17, faulty);
    const EngineRunResult b = run_reference_mix(/*seed=*/17, faulty);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed) << "job " << i;
      EXPECT_EQ(a.outcomes[i].grant_vtime, b.outcomes[i].grant_vtime) << "job " << i;
      EXPECT_EQ(a.outcomes[i].complete_vtime, b.outcomes[i].complete_vtime) << "job " << i;
      EXPECT_EQ(a.outcomes[i].rank0_output, b.outcomes[i].rank0_output) << "job " << i;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.trace_json, b.trace_json) << "trace must replay byte-identically (faulty="
                                          << faulty << ")";
  }
}

TEST(SchedDeterminism, TracePassesTheInvariantCheckers) {
  for (const bool faulty : {false, true}) {
    const EngineRunResult r = run_reference_mix(/*seed=*/23, faulty);
    const trace::CheckReport chrome = trace::check_chrome_json(bytes_of_string(r.trace_json));
    EXPECT_TRUE(chrome.valid) << chrome.error;
  }
}

/// Three tenants' overlapping jobs on a 12-rank fleet under the mixed link
/// plan, verified per round so the raw stack heals its mangled payloads too.
struct LinkMixJob {
  const char* tenant;
  Kernel kernel;
  ICollOp op;
  AllreduceAlgo algo;
  int first_rank;
  int nranks;
  DatasetId dataset;
  size_t elements;
};
const LinkMixJob kLinkMix[] = {
    {"alpha", Kernel::kHzcclSingleThread, ICollOp::kAllreduce, AllreduceAlgo::kRing, 0, 8,
     DatasetId::kCesmAtm, 2048},
    {"beta", Kernel::kMpi, ICollOp::kAllreduce, AllreduceAlgo::kRecursiveDoubling, 4, 8,
     DatasetId::kNyx, 1500},
    {"gamma", Kernel::kCCollSingleThread, ICollOp::kReduceScatter, AllreduceAlgo::kRing, 3, 6,
     DatasetId::kHurricane, 1800},
};

RankInputFn link_mix_input(size_t i) {
  const LinkMixJob& j = kLinkMix[i];
  return dataset_input(j.dataset, j.elements, static_cast<uint32_t>(i + 1));
}

struct LinkMixRun {
  std::vector<JobOutcome> outcomes;
  std::vector<simmpi::ClockReport> clocks;
  std::vector<std::string> counters;  ///< every fleet rank's transport and health
  std::string trace_json;
};

LinkMixRun run_link_mix() {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  EngineConfig ec;
  ec.fleet_ranks = 12;
  ec.net = net;
  ec.seed = 17;
  ec.faults = FaultPlan::parse(kMixedLink);
  ec.trace.enabled = true;
  Engine engine(ec);
  std::vector<Request> requests;
  for (size_t i = 0; i < std::size(kLinkMix); ++i) {
    const LinkMixJob& j = kLinkMix[i];
    JobConfig c = job_config(j.nranks, net, j.algo);
    c.verify = coll::VerifyPolicy::kPerRound;
    SubmitOptions opt;
    opt.first_rank = j.first_rank;
    opt.tenant = j.tenant;
    opt.enqueue_vtime = 1e-6 * static_cast<double>(i);
    requests.push_back(engine.submit(j.kernel, j.op, c, link_mix_input(i), opt));
  }
  engine.run();

  LinkMixRun r;
  for (const Request& req : requests) r.outcomes.push_back(engine.outcome(req));
  r.clocks = engine.clock_reports();
  const std::vector<TransportStats> transport = engine.transport_stats();
  const std::vector<HealthStats> health = engine.health_stats();
  for (size_t rank = 0; rank < transport.size(); ++rank) {
    r.counters.push_back(describe(transport[rank]) + " | " + describe(health[rank]));
  }
  r.trace_json = trace::to_chrome_json(engine.trace());
  return r;
}

TEST(SchedDeterminism, LinkFaultedTenantMixReplaysByteIdentically) {
  const LinkMixRun a = run_link_mix();
  const LinkMixRun b = run_link_mix();
  TransportStats fleet;
  ASSERT_EQ(a.outcomes.size(), std::size(kLinkMix));
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const JobOutcome& x = a.outcomes[i];
    const JobOutcome& y = b.outcomes[i];
    ASSERT_TRUE(x.completed) << "job " << i << ": " << x.error;
    EXPECT_EQ(x.completed, y.completed) << "job " << i;
    EXPECT_EQ(x.grant_vtime, y.grant_vtime) << "job " << i;
    EXPECT_EQ(x.complete_vtime, y.complete_vtime) << "job " << i;
    EXPECT_EQ(x.rank0_output, y.rank0_output) << "job " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "job " << i;
    EXPECT_EQ(describe(x.transport), describe(y.transport)) << "job " << i;
    EXPECT_EQ(describe(x.integrity), describe(y.integrity)) << "job " << i;
    fleet += x.transport;

    // Healed, not merely replayed: each output stays within its envelope
    // (rank 0's owned ring block for the reduce-scatter).
    const LinkMixJob& j = kLinkMix[i];
    const std::vector<float> exact = exact_reduction(j.nranks, link_mix_input(i));
    const Range own = j.op == ICollOp::kReduceScatter
                          ? coll::ring_block_range(exact.size(), j.nranks,
                                                   coll::rs_owned_block(0, j.nranks))
                          : Range{0, exact.size()};
    ASSERT_EQ(x.rank0_output.size(), own.size()) << "job " << i;
    const double envelope = 3.0 * j.nranks * 1e-3 + 1e-6;
    for (size_t e = 0; e < own.size(); ++e) {
      ASSERT_NEAR(x.rank0_output[e], exact[own.begin + e], envelope)
          << "job " << i << " element " << e;
    }
  }
  EXPECT_GT(fleet.faults_injected, 0u);
  EXPECT_GT(fleet.retransmits, 0u);
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (size_t r = 0; r < a.clocks.size(); ++r) {
    EXPECT_EQ(a.clocks[r].total_seconds, b.clocks[r].total_seconds) << "rank " << r;
    EXPECT_EQ(a.clocks[r].bucket_seconds, b.clocks[r].bucket_seconds) << "rank " << r;
  }
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.trace_json, b.trace_json) << "the link-faulted trace must replay byte-identically";
}

// ---------------------------------------------------------------------------
// 2. Fusion correctness.
// ---------------------------------------------------------------------------

TEST(SchedFusion, GradientBucketsFuseAndSplitWithinErrorBound) {
  const NetModel net = NetModel::omnipath_100g();
  const int nranks = 8;
  SchedulerConfig sc;
  sc.engine.fleet_ranks = nranks;
  sc.engine.net = net;
  sc.engine.trace.enabled = true;
  Scheduler scheduler(sc);

  // Four small same-shape buckets arriving inside the fusion window, with
  // distinct element counts (the slices must come back the right sizes).
  const std::vector<size_t> sizes{300, 500, 700, 400};
  std::vector<int> members;
  for (size_t i = 0; i < sizes.size(); ++i) {
    TenantJobSpec spec;
    spec.tenant = "trainer";
    spec.kernel = Kernel::kHzcclSingleThread;
    spec.config = job_config(nranks, net);
    spec.input = dataset_input(DatasetId::kCesmAtm, sizes[i], static_cast<uint32_t>(10 * i));
    spec.enqueue_vtime = static_cast<double>(i) * 10e-6;  // inside the 100 us window
    members.push_back(scheduler.submit(spec));
  }
  // A big job stays solo (above the 64 KiB threshold)...
  TenantJobSpec big;
  big.tenant = "trainer";
  big.kernel = Kernel::kHzcclSingleThread;
  big.config = job_config(nranks, net);
  big.input = dataset_input(DatasetId::kNyx, 32768, 99);
  const int big_index = scheduler.submit(big);
  // ... and so does a small job that opted out.
  TenantJobSpec optout;
  optout.tenant = "trainer";
  optout.kernel = Kernel::kHzcclSingleThread;
  optout.config = job_config(nranks, net);
  optout.input = dataset_input(DatasetId::kCesmAtm, 256, 7);
  optout.fusable = false;
  const int optout_index = scheduler.submit(optout);

  scheduler.run();
  const std::vector<TenantJobResult>& results = scheduler.results();

  const double bound = static_cast<double>(nranks) * 1e-3 * 1.01;
  int fused_engine_job = -1;
  for (size_t i = 0; i < members.size(); ++i) {
    const TenantJobResult& r = results[static_cast<size_t>(members[i])];
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_TRUE(r.fused) << "member " << i;
    if (fused_engine_job < 0) fused_engine_job = r.engine_job;
    EXPECT_EQ(r.engine_job, fused_engine_job) << "members must share one super-job";
    ASSERT_EQ(r.rank0_output.size(), sizes[i]);
    // Fusion reshapes the compression chunking, so results are not bitwise
    // solo — but the homomorphic pipeline's error law still holds.
    const std::vector<float> exact = exact_reduction(
        nranks, dataset_input(DatasetId::kCesmAtm, sizes[i], static_cast<uint32_t>(10 * i)));
    for (size_t e = 0; e < exact.size(); ++e) {
      ASSERT_NEAR(r.rank0_output[e], exact[e], bound) << "member " << i << " element " << e;
    }
    EXPECT_LE(r.enqueue_vtime, r.grant_vtime);
    EXPECT_LE(r.grant_vtime, r.complete_vtime);
  }
  EXPECT_FALSE(results[static_cast<size_t>(big_index)].fused);
  EXPECT_FALSE(results[static_cast<size_t>(optout_index)].fused);
  ASSERT_TRUE(results[static_cast<size_t>(big_index)].completed);
  ASSERT_TRUE(results[static_cast<size_t>(optout_index)].completed);

  // The trace carries per-member lifecycle markers that satisfy the
  // enqueue <= fuse <= grant <= complete invariant.
  const trace::SchedCheckReport report = trace::check_sched_spans(scheduler.engine().trace());
  EXPECT_TRUE(report.valid) << report.error;
  // 4 members + super-job + big + optout.
  EXPECT_EQ(report.jobs, 7);

  // Per-tenant accounting sees one tenant owning everything.
  const std::vector<TenantUsage> usage = scheduler.usage();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].tenant, "trainer");
  EXPECT_EQ(usage[0].jobs, 6);
  EXPECT_EQ(usage[0].completed, 6);
  EXPECT_EQ(usage[0].fused, 4);
  EXPECT_GT(usage[0].payload_bytes_sent, 0u);
  EXPECT_GT(usage[0].busy_seconds, 0.0);
}

TEST(SchedFusion, ArrivalsOutsideTheWindowDoNotFuse) {
  const NetModel net = NetModel::omnipath_100g();
  SchedulerConfig sc;
  sc.engine.fleet_ranks = 4;
  sc.engine.net = net;
  sc.fusion_window_s = 100e-6;
  Scheduler scheduler(sc);

  TenantJobSpec spec;
  spec.tenant = "t";
  spec.kernel = Kernel::kMpi;
  spec.config = job_config(4, net);
  spec.input = ramp_input(128, 1.0f);

  spec.enqueue_vtime = 0.0;
  const int a = scheduler.submit(spec);
  spec.enqueue_vtime = 50e-6;  // inside the window of a
  const int b = scheduler.submit(spec);
  spec.enqueue_vtime = 900e-6;  // its own (singleton) batch
  const int c = scheduler.submit(spec);

  scheduler.run();
  EXPECT_TRUE(scheduler.results()[static_cast<size_t>(a)].fused);
  EXPECT_TRUE(scheduler.results()[static_cast<size_t>(b)].fused);
  EXPECT_FALSE(scheduler.results()[static_cast<size_t>(c)].fused);
  // The super-job cannot be granted before its last member arrived.
  EXPECT_GE(scheduler.results()[static_cast<size_t>(a)].grant_vtime, 50e-6);
}

TEST(SchedFusion, FusionOffSubmitsEverythingSolo) {
  const NetModel net = NetModel::omnipath_100g();
  SchedulerConfig sc;
  sc.engine.fleet_ranks = 4;
  sc.engine.net = net;
  sc.fusion = false;
  Scheduler scheduler(sc);
  TenantJobSpec spec;
  spec.kernel = Kernel::kMpi;
  spec.config = job_config(4, net);
  spec.input = ramp_input(64, 1.0f);
  const int a = scheduler.submit(spec);
  const int b = scheduler.submit(spec);
  scheduler.run();
  EXPECT_FALSE(scheduler.results()[static_cast<size_t>(a)].fused);
  EXPECT_FALSE(scheduler.results()[static_cast<size_t>(b)].fused);
  EXPECT_NE(scheduler.results()[static_cast<size_t>(a)].engine_job,
            scheduler.results()[static_cast<size_t>(b)].engine_job);
}

// ---------------------------------------------------------------------------
// 3. No starvation under adversarial priorities.
// ---------------------------------------------------------------------------

/// One low-QoS victim enqueued at t=0 against a stream of high-QoS jobs, all
/// competing for a single admission slot.  Returns (victim grant, last
/// attacker grant).
std::pair<double, double> starvation_duel(double aging_quantum_s) {
  const NetModel net = NetModel::omnipath_100g();
  EngineConfig ec;
  ec.fleet_ranks = 4;
  ec.net = net;
  ec.max_concurrent = 1;
  ec.aging_quantum_s = aging_quantum_s;
  Engine engine(ec);
  const JobConfig config = job_config(4, net);

  SubmitOptions victim_opt;
  victim_opt.priority = 5;
  const Request victim = engine.iallreduce(Kernel::kMpi, config,
                                           ramp_input(2048, 1.0f), victim_opt);
  // The adversarial stream arrives continuously — faster than the single
  // slot serves it, so a fresh class-0 job is always pending.  Aging is what
  // lets the victim's accumulated wait beat arrivals that have not waited.
  std::vector<Request> attackers;
  for (int i = 0; i < 8; ++i) {
    SubmitOptions opt;
    opt.priority = 0;
    opt.enqueue_vtime = static_cast<double>(i) * 15e-6;
    attackers.push_back(engine.iallreduce(Kernel::kMpi, config,
                                          ramp_input(2048, 2.0f + static_cast<float>(i)),
                                          opt));
  }
  engine.run();

  double last_attacker_grant = 0.0;
  for (const Request& r : attackers) {
    EXPECT_TRUE(engine.outcome(r).completed);
    last_attacker_grant = std::max(last_attacker_grant, engine.outcome(r).grant_vtime);
  }
  EXPECT_TRUE(engine.outcome(victim).completed);
  return {engine.outcome(victim).grant_vtime, last_attacker_grant};
}

TEST(SchedStarvation, AgingAdmitsTheLowQoSVictimBeforeTheStreamDrains) {
  // With a tight quantum the victim's effective priority beats class 0 after
  // a few grants; with an (effectively) infinite quantum it is starved until
  // every class-0 job has run.
  const auto [aged_grant, aged_last] = starvation_duel(/*aging_quantum_s=*/5e-6);
  EXPECT_LT(aged_grant, aged_last)
      << "priority aging must admit the victim before the adversarial stream drains";

  const auto [starved_grant, starved_last] = starvation_duel(/*aging_quantum_s=*/1e6);
  EXPECT_GT(starved_grant, starved_last)
      << "sanity: without aging the victim is granted last";
}

// ---------------------------------------------------------------------------
// 4. Fair-share bandwidth and accounting reconciliation.
// ---------------------------------------------------------------------------

TEST(SchedFairShare, PerJobTransportReconcilesWithPerRankStats) {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  EngineConfig ec;
  ec.fleet_ranks = 12;
  ec.net = net;
  ec.trace.enabled = true;
  Engine engine(ec);

  std::vector<Request> requests;
  requests.push_back(engine.iallreduce(Kernel::kHzcclSingleThread, job_config(8, net),
                                       dataset_input(DatasetId::kCesmAtm, 2048, 1)));
  SubmitOptions shifted;
  shifted.first_rank = 4;
  requests.push_back(engine.iallreduce(Kernel::kMpi, job_config(8, net),
                                       dataset_input(DatasetId::kNyx, 1024, 2), shifted));
  SubmitOptions tail;
  tail.first_rank = 6;
  requests.push_back(engine.ireduce_scatter(Kernel::kCCollSingleThread, job_config(6, net),
                                            dataset_input(DatasetId::kHurricane, 1500, 3),
                                            tail));
  engine.run();

  TransportStats job_sum;
  uint64_t job_payload = 0;
  for (const Request& r : requests) {
    const JobOutcome& out = engine.outcome(r);
    ASSERT_TRUE(out.completed) << out.error;
    job_sum += out.transport;
    job_payload += out.payload_bytes_sent;
    EXPECT_GT(out.payload_bytes_sent, 0u);
  }
  TransportStats rank_sum;
  for (const TransportStats& s : engine.transport_stats()) rank_sum += s;
  EXPECT_EQ(job_sum.frames_sent, rank_sum.frames_sent);
  EXPECT_EQ(job_sum.frames_accepted, rank_sum.frames_accepted);
  EXPECT_EQ(job_sum.frames_sent, job_sum.frames_accepted) << "clean run: every frame consumed";
  EXPECT_GT(job_payload, 0u);

  // Per-job span attribution covers each job's [grant, complete] activity.
  const trace::Trace t = engine.trace();
  const trace::SchedCheckReport report = trace::check_sched_spans(t);
  EXPECT_TRUE(report.valid) << report.error;
  EXPECT_EQ(report.jobs, 3);
  const std::vector<trace::RankPhases> by_job = trace::aggregate_by_job(t);
  ASSERT_GE(by_job.size(), 3u);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_GT(by_job[j].accounted(), 0.0) << "job " << j << " has attributed spans";
  }
}

TEST(SchedFairShare, PerJobTransportSumsToTheFleetUnderLinkFaults) {
  // Every transport counter is bumped once, on a rank's Endpoint; a job's
  // counters are what its own steps added.  With two overlapping jobs under
  // every link fault the jobs' counters therefore add up to the fleet's.
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  EngineConfig ec;
  ec.fleet_ranks = 10;
  ec.net = net;
  ec.faults = FaultPlan::parse(kMixedLink);
  Engine engine(ec);
  JobConfig c = job_config(8, net);
  c.verify = coll::VerifyPolicy::kPerRound;
  SubmitOptions shifted;
  shifted.first_rank = 2;
  const std::vector<Request> requests{
      engine.iallreduce(Kernel::kHzcclSingleThread, c,
                        dataset_input(DatasetId::kCesmAtm, 2048, 1)),
      engine.ireduce_scatter(Kernel::kCCollSingleThread, c,
                             dataset_input(DatasetId::kHurricane, 1500, 2), shifted)};
  engine.run();

  TransportStats job_sum;
  for (const Request& r : requests) {
    const JobOutcome& out = engine.outcome(r);
    ASSERT_TRUE(out.completed) << out.error;
    EXPECT_FALSE(out.transport.clean()) << "job " << r.job << " saw no link fault";
    job_sum += out.transport;
  }
  const TransportStats fleet = total_transport(engine.transport_stats());
  EXPECT_EQ(describe(job_sum), describe(fleet));
  EXPECT_GT(fleet.retransmits, 0u);
}

TEST(SchedFairShare, JobsSharingARankRollOneStallDie) {
  // The stall die belongs to the fleet rank, like its send seqs: two
  // identical jobs on the same ranks draw from one counter per rank, so
  // they stall at different operations.  A die per (job, rank) would
  // replay one stall sequence in both.
  const NetModel net = NetModel::omnipath_100g();
  EngineConfig ec;
  ec.fleet_ranks = 6;
  ec.net = net;
  ec.faults = FaultPlan::parse("3,0,0,0,0,0.2");
  ec.trace.enabled = true;
  Engine engine(ec);
  const JobConfig c = job_config(6, net);
  const RankInputFn input = dataset_input(DatasetId::kHurricane, 1200);
  const std::vector<Request> requests{engine.iallreduce(Kernel::kHzcclSingleThread, c, input),
                                      engine.iallreduce(Kernel::kHzcclSingleThread, c, input)};
  engine.run();

  // Per job: each rank's transport operations in order, 's' where one
  // stalled ('o' for a send or an accepted receive, each after its stall).
  const trace::Trace trace = engine.trace();
  std::vector<std::string> stalls(requests.size());
  uint64_t job_stalls = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const JobOutcome& out = engine.outcome(requests[i]);
    ASSERT_TRUE(out.completed) << out.error;
    EXPECT_GT(out.transport.stalls, 0u) << "job " << i;
    job_stalls += out.transport.stalls;
    for (const std::vector<trace::Event>& rank : trace.ranks) {
      for (const trace::Event& e : rank) {
        if (e.job != static_cast<uint8_t>(requests[i].job)) continue;
        if (e.kind == trace::EventKind::kStall) stalls[i] += 's';
        if (e.kind == trace::EventKind::kSend || e.kind == trace::EventKind::kRecv) {
          stalls[i] += 'o';
        }
      }
      stalls[i] += '|';
    }
  }
  EXPECT_NE(stalls[0], stalls[1]);
  EXPECT_EQ(job_stalls, total_transport(engine.transport_stats()).stalls);
  EXPECT_EQ(engine.outcome(requests[0]).rank0_output, engine.outcome(requests[1]).rank0_output);
}

TEST(SchedFairShare, ContentionChangesTimeNeverBytes) {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  const JobConfig config = job_config(8, net);
  const RankInputFn input = dataset_input(DatasetId::kCesmAtm, 4096, 1);

  // Solo run: the blocking-equivalent price.
  EngineConfig solo_ec;
  solo_ec.fleet_ranks = 8;
  solo_ec.net = net;
  Engine solo(solo_ec);
  const Request solo_req = solo.iallreduce(Kernel::kHzcclSingleThread, config, input);
  solo.run();
  const JobOutcome solo_out = solo.outcome(solo_req);
  ASSERT_TRUE(solo_out.completed);

  // Two identical jobs over the same ranks, different weights.
  EngineConfig ec;
  ec.fleet_ranks = 8;
  ec.net = net;
  Engine engine(ec);
  SubmitOptions heavy_opt;
  heavy_opt.weight = 3.0;
  const Request heavy = engine.iallreduce(Kernel::kHzcclSingleThread, config, input, heavy_opt);
  SubmitOptions light_opt;
  light_opt.weight = 1.0;
  const Request light = engine.iallreduce(Kernel::kHzcclSingleThread, config, input, light_opt);
  engine.run();
  const JobOutcome& heavy_out = engine.outcome(heavy);
  const JobOutcome& light_out = engine.outcome(light);
  ASSERT_TRUE(heavy_out.completed);
  ASSERT_TRUE(light_out.completed);

  // Bytes and frames are a function of the collective, not of contention.
  EXPECT_EQ(heavy_out.payload_bytes_sent, solo_out.payload_bytes_sent);
  EXPECT_EQ(light_out.payload_bytes_sent, solo_out.payload_bytes_sent);
  EXPECT_EQ(heavy_out.transport.frames_sent, solo_out.transport.frames_sent);
  EXPECT_EQ(heavy_out.rank0_output, solo_out.rank0_output);
  EXPECT_EQ(light_out.rank0_output, solo_out.rank0_output);

  // Contention can only slow a job down, and the heavier share of the
  // contended links finishes no later than the lighter one.
  EXPECT_GE(heavy_out.complete_vtime, solo_out.complete_vtime - 1e-12);
  EXPECT_GE(light_out.complete_vtime, solo_out.complete_vtime - 1e-12);
  EXPECT_LE(heavy_out.complete_vtime, light_out.complete_vtime + 1e-12);
}

// ---------------------------------------------------------------------------
// 5. Recovery under concurrency: a crash with three jobs in flight.
// ---------------------------------------------------------------------------

TEST(SchedRecovery, CrashWithThreeOverlappingJobsShrinksAndRetries) {
  const NetModel net = NetModel::omnipath_100g_nodes(4);
  const int fleet = 12;
  const int dead_rank = 5;

  EngineConfig ec;
  ec.fleet_ranks = fleet;
  ec.net = net;
  ec.trace.enabled = true;
  RankFault crash;
  crash.kind = RankFaultKind::kCrash;
  crash.rank = dead_rank;
  crash.after_ops = 7;  // mid-flight: after a few sends/recvs of the mix
  ec.faults.rank_faults.push_back(crash);
  Engine engine(ec);

  simmpi::RetryPolicy retry;
  retry.max_attempts = 3;

  struct RecJob {
    Kernel kernel;
    ICollOp op;
    int first_rank;
    int nranks;
    DatasetId dataset;
    size_t elements;
  };
  const std::vector<RecJob> mix{
      {Kernel::kHzcclSingleThread, ICollOp::kAllreduce, 0, 8, DatasetId::kCesmAtm, 2048},
      {Kernel::kMpi, ICollOp::kAllreduce, 2, 8, DatasetId::kNyx, 1600},
      {Kernel::kCCollSingleThread, ICollOp::kAllreduce, 4, 8, DatasetId::kHurricane, 1200},
      // A job not touching the dead rank completes over its full group.
      {Kernel::kMpi, ICollOp::kReduceScatter, 0, 4, DatasetId::kRtmSim1, 900},
  };
  std::vector<Request> requests;
  for (size_t i = 0; i < mix.size(); ++i) {
    const RecJob& j = mix[i];
    JobConfig c = job_config(j.nranks, net);
    c.retry = retry;
    SubmitOptions opt;
    opt.first_rank = j.first_rank;
    requests.push_back(engine.submit(j.kernel, j.op, c,
                                     dataset_input(j.dataset, j.elements,
                                                   static_cast<uint32_t>(i)),
                                     opt));
  }
  engine.run();
  EXPECT_EQ(engine.epoch(), 1u) << "one death, one epoch bump";

  for (size_t i = 0; i < mix.size(); ++i) {
    const RecJob& j = mix[i];
    const JobOutcome& out = engine.outcome(requests[i]);
    ASSERT_TRUE(out.completed) << "job " << i << ": " << out.error;
    const bool overlaps = j.first_rank <= dead_rank && dead_rank < j.first_rank + j.nranks;
    if (!overlaps) {
      EXPECT_TRUE(out.failed_ranks.empty()) << "job " << i;
      EXPECT_EQ(static_cast<int>(out.final_group.size()), j.nranks);
      continue;
    }
    // Affected jobs lost exactly the dead rank and completed over the rest.
    ASSERT_EQ(out.failed_ranks, std::vector<int>{dead_rank}) << "job " << i;
    ASSERT_EQ(static_cast<int>(out.final_group.size()), j.nranks - 1);
    EXPECT_EQ(out.final_epoch, 1u);
    EXPECT_FALSE(std::count(out.final_group.begin(), out.final_group.end(), dead_rank));

    // The survivors' bytes replay the blocking shrink-and-retry: a blocking
    // job over the same group with the same member crashed produces the
    // same final attempt over the same survivors.
    JobConfig blocking_config = job_config(j.nranks, net);
    blocking_config.retry = retry;
    RankFault local = crash;
    local.rank = dead_rank - j.first_rank;
    local.after_ops = 1;  // the crash point never changes the retried bytes
    blocking_config.faults.rank_faults.push_back(local);
    const Op blocking_op =
        j.op == ICollOp::kAllreduce ? Op::kAllreduce : Op::kReduceScatter;
    const JobResult blocking =
        run_collective(j.kernel, blocking_op, blocking_config,
                       dataset_input(j.dataset, j.elements, static_cast<uint32_t>(i)));
    ASSERT_EQ(out.rank0_output, blocking.rank0_output) << "job " << i;
    EXPECT_GE(out.attempts, 1);
  }

  // The extended invariant checker accepts the recovery trace.
  const trace::Trace t = engine.trace();
  const trace::SchedCheckReport report = trace::check_sched_spans(t);
  EXPECT_TRUE(report.valid) << report.error;
  const std::string json = trace::to_chrome_json(t);
  const trace::CheckReport chrome = trace::check_chrome_json(bytes_of_string(json));
  EXPECT_TRUE(chrome.valid) << chrome.error;

  // Survivor health counters recorded the recovery sequence.
  uint64_t suspects = 0;
  for (const HealthStats& h : engine.health_stats()) suspects += h.suspects;
  EXPECT_GT(suspects, 0u);
}

TEST(SchedRecovery, ExhaustedRetriesFailTheJobNotTheEngine) {
  const NetModel net = NetModel::omnipath_100g();
  EngineConfig ec;
  ec.fleet_ranks = 4;
  ec.net = net;
  RankFault crash;
  crash.kind = RankFaultKind::kCrash;
  crash.rank = 2;
  crash.after_ops = 3;
  ec.faults.rank_faults.push_back(crash);
  Engine engine(ec);

  JobConfig c = job_config(4, net);
  c.retry.max_attempts = 1;  // no retries: the death is fatal for the job
  const Request doomed = engine.iallreduce(Kernel::kMpi, c, ramp_input(1024, 1.0f));
  // A job on the surviving ranks still completes.
  JobConfig ok = job_config(2, net);
  const Request fine = engine.iallreduce(Kernel::kMpi, ok, ramp_input(512, 2.0f));
  engine.run();

  EXPECT_FALSE(engine.outcome(doomed).completed);
  EXPECT_FALSE(engine.outcome(doomed).error.empty());
  EXPECT_EQ(engine.outcome(doomed).failed_ranks, std::vector<int>{2});
  EXPECT_TRUE(engine.outcome(fine).completed) << engine.outcome(fine).error;
}

// ---------------------------------------------------------------------------
// 6. Golden 3-tenant trace.
// ---------------------------------------------------------------------------

std::string golden_sched_json() {
  // Pin the scalar kernel level (golden files must replay on any host) and
  // use the raw MPI kernel whose modeled costs depend only on byte counts.
  const kernels::DispatchLevel prev = kernels::active_dispatch_level();
  kernels::set_dispatch_level(kernels::DispatchLevel::kScalar);

  const NetModel net = NetModel::omnipath_100g_nodes(4);
  SchedulerConfig sc;
  sc.engine.fleet_ranks = 8;
  sc.engine.net = net;
  sc.engine.trace.enabled = true;
  Scheduler scheduler(sc);

  TenantJobSpec spec;
  spec.kernel = Kernel::kMpi;

  // Tenant A: two tiny buckets that fuse.
  spec.tenant = "climate";
  spec.config = job_config(8, net);
  spec.input = ramp_input(256, 1.0f);
  spec.enqueue_vtime = 0.0;
  scheduler.submit(spec);
  spec.input = ramp_input(320, 1.5f);
  spec.enqueue_vtime = 20e-6;
  scheduler.submit(spec);

  // Tenant B: a reduce-scatter on a sub-fleet placement.
  spec.tenant = "cosmology";
  spec.op = ICollOp::kReduceScatter;
  spec.config = job_config(4, net);
  spec.first_rank = 4;
  spec.priority = 0;
  spec.input = ramp_input(1024, 2.0f);
  spec.enqueue_vtime = 5e-6;
  scheduler.submit(spec);

  // Tenant C: an allgather over the full fleet.
  spec.tenant = "weather";
  spec.op = ICollOp::kAllgather;
  spec.config = job_config(8, net);
  spec.first_rank = 0;
  spec.priority = 2;
  spec.input = ramp_input(2048, 3.0f);
  spec.enqueue_vtime = 40e-6;
  scheduler.submit(spec);

  scheduler.run();
  kernels::set_dispatch_level(prev);
  return trace::to_chrome_json(scheduler.engine().trace());
}

TEST(SchedGoldenTrace, ThreeTenantWorkloadReplaysByteIdentically) {
  const std::string a = golden_sched_json();
  const std::string b = golden_sched_json();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SchedGoldenTrace, MatchesCheckedInGoldenFile) {
  const std::string path = std::string(HZCCL_TEST_DATA_DIR) + "/golden_sched_trace.json";
  const std::string current = golden_sched_json();

  // Whatever the bytes, the document must satisfy both checkers.
  const trace::CheckReport chrome = trace::check_chrome_json(bytes_of_string(current));
  ASSERT_TRUE(chrome.valid) << chrome.error;

  if (std::getenv("HZCCL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "golden sched trace regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with HZCCL_UPDATE_GOLDEN=1 to create it";
  std::string golden((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(current, golden)
      << "exported sched trace drifted from tests/data/golden_sched_trace.json; if the "
         "change is intentional, regenerate with HZCCL_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace hzccl
