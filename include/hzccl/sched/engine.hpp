// Nonblocking collectives and the multi-tenant progress engine.
//
// Everything the repo ran before this subsystem was one blocking job at a
// time: Runtime spawns a thread per rank, each thread runs one collective to
// completion, and the job's virtual completion time is the max rank clock.
// Production traffic is nothing like that — dozens of tenants submit
// overlapping allreduces over one shared fleet, and the fabric's contended
// links are shared *between* jobs.  The Engine models exactly that:
//
//   * iallreduce / ireduce_scatter / submit return a Request immediately;
//     per-rank progress is the collective's one coroutine body (see
//     collectives/schedules.hpp), the same body the blocking entry points
//     run, resumed through this engine's Port; it suspends at every receive,
//     so one engine interleaves all ranks of all jobs;
//   * a single discrete-event loop picks, deterministically, the runnable
//     rank-step with the smallest ready virtual time (ties: lowest rank,
//     then lowest job id) — same seed and job mix replay the same schedule,
//     completion times and trace byte for byte;
//   * admission control: jobs wait in a priority queue until granted
//     (max_concurrent slots; 0 = unlimited).  Priorities age so adversarial
//     mixes cannot starve a tenant;
//   * every fleet rank's clock, spans and counters live in a
//     simmpi::Endpoint (simmpi/endpoint.hpp), the type the threaded runtime
//     keeps each rank's timeline in, so each charge is made, traced and
//     counted alike in both executors;
//   * contended inter-node links are shared per-flow: a frame's transfer
//     time is NetModel::link_seconds capped at the job's weighted share of
//     the *fleet-wide* active-flow bandwidth, which is exactly the blocking
//     per-job price when one job runs;
//   * the wire is the threaded runtime's link layer (simmpi/link.hpp): one
//     inbox per (job, receiving rank), every frame framed and CRC-checked,
//     and every link fault of the FaultPlan (drop, corrupt, reorder,
//     duplicate, stall, mangle, wire SDC) injected and healed through the
//     in-flight window with timeout/NACK/retransmit and raw fallback;
//   * rank faults (crash/hang/straggler) run the threaded runtime's control
//     plane (simmpi/control_plane.hpp), one instance per job: a death
//     retires the rank in every job it belongs to, and each job detects,
//     agrees, shrinks and retries under its RetryPolicy.  Poisoned combines
//     (FaultPlan::poison) are compute-side: each rank of each job runs under
//     its own SdcInjector, seeded like the runtime's.  So one job alone on an
//     engine replays run_collective exactly under every FaultPlan.
//
// The scheduler lifecycle of every job is traced as zero-duration markers
// (kEnqueue/kFuse/kGrant/kComplete) on a dedicated pseudo-rank stream — the
// last stream of trace() — and every work span a job's ranks record carries
// the job id, which is what per-tenant accounting aggregates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hzccl/collectives/common.hpp"
#include "hzccl/collectives/transport.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/netmodel.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/trace/trace.hpp"
#include "hzccl/util/pool.hpp"
#include "hzccl/util/task.hpp"

namespace hzccl::sched {

struct EngineImpl;

/// The three nonblocking collectives.  Reduce-scatter and allgather run the
/// ring schedule; allreduce honours JobConfig::algo like run_collective.
enum class ICollOp : int { kReduceScatter = 0, kAllreduce = 1, kAllgather = 2 };

const char* icoll_op_name(ICollOp op);

/// Fleet-level engine configuration.  Per-job knobs stay in JobConfig; the
/// fleet (rank count, fabric, faults, tracing) and the admission policy are
/// engine-wide.
struct EngineConfig {
  int fleet_ranks = 8;
  simmpi::NetModel net;
  /// The fleet's whole fault plan: link faults, wire and compute-side SDC,
  /// and rank-fault schedules.  Validated at construction.
  simmpi::FaultPlan faults;
  trace::Options trace;
  /// Jobs admitted concurrently; 0 = unlimited, 1 = serialized execution
  /// (the baseline bench_sched compares against).
  int max_concurrent = 0;
  /// Priority aging: a queued job's effective priority improves by one class
  /// per quantum waited, so adversarial priority mixes cannot starve it.
  double aging_quantum_s = 250e-6;
  /// Tie-break salt for the admission order of equal-priority jobs.
  uint64_t seed = 0;
};

/// Per-job submission knobs.
struct SubmitOptions {
  /// First fleet rank of the job's contiguous placement; the job spans
  /// [first_rank, first_rank + config.nranks).
  int first_rank = 0;
  /// QoS class: lower admits first (before aging).
  int priority = 1;
  /// Fair-share weight of this job's flows on contended inter-node links.
  double weight = 1.0;
  /// Virtual time at which the job arrives in the scheduler queue.
  double enqueue_vtime = 0.0;
  /// Accounting label surfaced in per-tenant reports.
  std::string tenant = "default";
  /// Scheduler-fused constituents represented by this super-job (set by
  /// sched::Scheduler): each gets its own lifecycle markers.
  struct FusedMember {
    int id = -1;
    double enqueue_vtime = 0.0;
  };
  std::vector<FusedMember> fused_members;
};

/// Handle of a submitted job.
struct Request {
  int job = -1;
  bool valid() const { return job >= 0; }
};

/// Final state of one job, mirroring JobResult plus the scheduler timeline.
struct JobOutcome {
  bool completed = false;
  std::string error;  ///< failure reason when !completed

  std::vector<float> rank0_output;  ///< lowest surviving rank's result
  HzPipelineStats pipeline_stats;   ///< hz_add totals over all ranks
  size_t input_bytes_per_rank = 0;

  double enqueue_vtime = 0.0;
  double grant_vtime = 0.0;
  double complete_vtime = 0.0;

  uint64_t payload_bytes_sent = 0;  ///< payload bytes this job injected
  /// Every transport counter the job's frames bumped on its ranks'
  /// Endpoints; over all jobs these sum to Engine::transport_stats().
  TransportStats transport;
  /// ABFT digest verify/recover counters summed over the job's ranks
  /// (poisoned_combines included): mismatches caught from wire SDC
  /// (FaultPlan::sdc), poisoned combines (FaultPlan::poison, or an
  /// externally armed SdcInjector) or a mangled payload.  A job with
  /// !integrity.clean() is *tainted* even when every mismatch healed, and
  /// the Scheduler re-verifies fused members individually before splitting
  /// its result.
  IntegrityStats integrity;
  coll::AllreduceAlgo algo = coll::AllreduceAlgo::kRing;  ///< resolved schedule

  std::vector<int> failed_ranks;  ///< fleet ranks lost across attempts
  std::vector<int> final_group;   ///< surviving fleet ranks
  uint32_t final_epoch = 0;       ///< engine epoch at completion
  int attempts = 0;               ///< 1 + retries
  std::string tenant;
};

/// The per-rank face of the engine inside a collective body: a
/// coll::Transport whose receives suspend until the engine delivers the
/// matching frame.  Copyable value handle — bodies take it by value.
class Port;

/// Awaitable returned by Port::recv: always suspends; the engine resumes
/// the coroutine once the matching frame's transfer completes on the
/// receiver's clock (or with a revoke once its silent source is declared dead).
class RecvAwaitable {
 public:
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  [[nodiscard]] std::vector<uint8_t> await_resume();

 private:
  friend class Port;
  friend class RecvIntoAwaitable;
  friend struct EngineImpl;
  RecvAwaitable(EngineImpl* eng, int job, int vrank, int src, int tag,
                std::span<uint8_t> into = {})
      : eng_(eng), job_(job), vrank_(vrank), src_(src), tag_(tag), into_(into) {}

  EngineImpl* eng_;
  int job_;
  int vrank_;
  int src_;
  int tag_;
  std::span<uint8_t> into_;  ///< recv_into's buffer, which the link layer checks the payload into
  simmpi::Delivery delivery_;
  std::exception_ptr error_;
};

/// Awaitable returned by Port::recv_into: a RecvAwaitable that lands the
/// payload in a caller buffer of exactly its size.
class RecvIntoAwaitable : public RecvAwaitable {
 public:
  void await_resume();

 private:
  friend class Port;
  explicit RecvIntoAwaitable(RecvAwaitable base) : RecvAwaitable(std::move(base)) {}
};

class Port {
 public:
  [[nodiscard]] int rank() const { return vrank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] int phys_rank() const;
  /// Fleet ranks of the job's current attempt, indexed by virtual rank.
  [[nodiscard]] const std::vector<int>& group() const;
  [[nodiscard]] const simmpi::NetModel& net() const;
  /// The fleet's plan: under link faults the bodies' healing branches run
  /// and refetch from the job's in-flight window.
  [[nodiscard]] const simmpi::FaultPlan& faults() const;
  [[nodiscard]] BufferPool& pool() const;

  /// Eager send to a virtual rank of this job (never suspends).
  void send(int dst, int tag, std::span<const uint8_t> payload);
  void send_floats(int dst, int tag, std::span<const float> values);

  /// Awaitable receive from a virtual rank of this job.
  [[nodiscard]] RecvAwaitable recv(int src, int tag);
  /// Awaitable receive into `out`; the message size must match exactly.
  [[nodiscard]] RecvIntoAwaitable recv_into(int src, int tag, std::span<uint8_t> out);

  /// NACK the last message consumed from `src` on `tag` and fetch it again
  /// from the job's in-flight window (Comm::refetch); the round trip is
  /// charged to this rank's clock.
  [[nodiscard]] std::vector<uint8_t> refetch(int src, int tag, simmpi::Refetch mode,
                                             size_t raw_bytes_hint = 0);

  /// Spend straggler-scaled local time in `bucket` and record the typed,
  /// job-attributed span — the engine's Comm::charge.
  void charge(simmpi::CostBucket bucket, double seconds, trace::EventKind kind,
              uint64_t bytes = 0, uint64_t bytes_out = 0);

  /// Zero-duration, job-attributed integrity marker at the rank's now.
  void mark(trace::EventKind kind);

  /// The job's ABFT verify/recover counters — the engine's Comm::integrity
  /// (job-wide rather than per-rank: the engine interleaves all ranks on one
  /// thread, so per-rank attribution would add state for no consumer).
  [[nodiscard]] IntegrityStats& integrity();

 private:
  friend struct EngineImpl;
  Port(EngineImpl* eng, int job, int vrank) : eng_(eng), job_(job), vrank_(vrank) {}

  EngineImpl* eng_;
  int job_;
  int vrank_;
};

static_assert(coll::Transport<Port>);

class Engine {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueue a collective job.  `input(vrank)` supplies each rank's input —
  /// the full vector for allreduce/reduce-scatter *and* allgather (the
  /// allgather contributes the rank's owned ring block of it, mirroring the
  /// blocking reduce-scatter + allgather decomposition).  Returns at once;
  /// nothing progresses until test()/wait()/run().
  Request submit(Kernel kernel, ICollOp op, const JobConfig& config,
                 const RankInputFn& input, const SubmitOptions& options = {});

  Request iallreduce(Kernel kernel, const JobConfig& config, const RankInputFn& input,
                     const SubmitOptions& options = {});
  Request ireduce_scatter(Kernel kernel, const JobConfig& config, const RankInputFn& input,
                          const SubmitOptions& options = {});

  /// Reserve a job id without submitting anything — the Scheduler labels
  /// fused constituents with these so their lifecycle markers share the
  /// engine's id space.
  int reserve_job_id();

  /// True once the job reached a terminal state (does not progress work).
  [[nodiscard]] bool test(const Request& request) const;

  /// Drive the whole engine until this job completes.
  void wait(const Request& request);

  /// Drive the whole engine until every submitted job completes.
  void run();

  /// Terminal state of a completed job; throws if !test(request).
  [[nodiscard]] const JobOutcome& outcome(const Request& request) const;

  /// Jobs submitted (reserved ids included).
  [[nodiscard]] int jobs() const;

  /// Largest completion time over all finished jobs.
  [[nodiscard]] double makespan() const;

  /// Group epoch: bumped once per rank death, shared by every job.
  [[nodiscard]] uint32_t epoch() const;

  /// Per-rank event streams plus the scheduler marker pseudo-stream (always
  /// the last stream when tracing is enabled).
  [[nodiscard]] trace::Trace trace() const;

  [[nodiscard]] std::vector<simmpi::ClockReport> clock_reports() const;
  [[nodiscard]] std::vector<TransportStats> transport_stats() const;
  [[nodiscard]] std::vector<HealthStats> health_stats() const;

 private:
  std::unique_ptr<EngineImpl> impl_;
};

}  // namespace hzccl::sched
