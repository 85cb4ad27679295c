// The multi-tenant progress engine (see include/hzccl/sched/engine.hpp).
//
// One OS thread, many virtual clocks.  Each rank of each job runs its
// collective as a lazy coroutine; the engine is a discrete-event loop that
// repeatedly executes the runnable rank-step with the smallest ready virtual
// time.  A rank-step is one of
//
//   start:  a granted job's rank begins its collective at
//           max(rank clock, grant time);
//   wake:   a parked receive the link layer (simmpi/link.hpp) can complete:
//           its matching frame is on the wire, ready at max(rank clock,
//           sender stamp) + fair-share transfer time, or was dropped, ready at
//           the receiver's timeout; or one whose source is silent, with
//           nothing on hand, ready at the health machine's deadline in the
//           job's control plane — which also releases the agreement,
//           backoff, shrink and retry that follow.
//
// The wire is the threaded runtime's: each job keeps one link-layer inbox
// per receiving rank and one link state per rank, and every send, receive
// entry, wake and refetch goes through simmpi::Link, so a job runs every
// FaultPlan exactly as run_collective does.  A fleet rank's send seqs and
// stall die live on its Endpoint, so the jobs sharing it draw distinct
// wire and stall dice.
//
// Determinism: ready times are pure functions of the virtual clocks and the
// posted frames, and ties break on (rank, job id), so the same configuration
// replays the same schedule exactly — the property the sched tier's replay
// tests pin.  The runnable set is indexed by a per-rank item list plus a
// lazily invalidated min-heap of (time, rank) hints; a hint is trusted only
// if the rank's version still matches and a fresh scan reproduces its time.
#include "hzccl/sched/engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

#include "hzccl/cluster/autotune.hpp"
#include "hzccl/core/dispatch.hpp"
#include "hzccl/integrity/sdc.hpp"
#include "hzccl/simmpi/control_plane.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::sched {

const char* icoll_op_name(ICollOp op) {
  switch (op) {
    case ICollOp::kReduceScatter: return "ireduce_scatter";
    case ICollOp::kAllreduce: return "iallreduce";
    case ICollOp::kAllgather: return "iallgather";
  }
  return "?";
}

namespace {

/// Thrown out of a Port call when the calling rank's own scheduled fault
/// fires; unwinds the rank's coroutine (running its destructors) so the
/// engine can retire the rank when the root concludes.
struct RankDeadError {
  bool hang = false;  ///< a hang drains the frames the rank holds back; a crash drops them
};

/// Deposited into a parked receive whose silent source the health machine
/// declared dead: unwinds the survivor's attempt to the job's agreement.
struct AttemptRevoked {};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Admission tie-break stream.
constexpr uint64_t kGrantStream = 0x47524E54ULL;  // "GRNT"

using RoundKind = simmpi::ControlPlane::RoundKind;

/// What one rank's collective produced.
struct RootOutcome {
  std::vector<float> output;  ///< full vector (allreduce/allgather) or owned block
  HzPipelineStats stats;      ///< hz_add totals of this rank
};

/// One rank's whole collective as a lazy coroutine: run_stack, the dispatch
/// run_collective drives, over the same bodies (collectives/schedules.hpp)
/// with the engine's Port as the transport.  Like run_collective it runs in
/// the storage of `input`, which ends as the output.  Allgather (engine
/// only) contributes the rank's owned ring block of `input`, mirroring the
/// blocking reduce-scatter + allgather decomposition; that block is already
/// in place.
Task<RootOutcome> run_rank_collective(Port port, Kernel kernel, ICollOp op,
                                      coll::AllreduceAlgo algo, coll::CollectiveConfig config,
                                      std::vector<float> input) {
  RootOutcome out;
  out.output = std::move(input);
  const std::span<const float> in(out.output);
  if (op != ICollOp::kAllgather) {
    const Op stack_op = op == ICollOp::kAllreduce ? Op::kAllreduce : Op::kReduceScatter;
    co_await run_stack(port, kernel, stack_op, algo, in, out.output, config, &out.stats);
    co_return out;
  }
  const Range own = coll::ring_block_range(in.size(), port.size(),
                                           coll::rs_owned_block(port.rank(), port.size()));
  const std::span<const float> mine = in.subspan(own.begin, own.size());
  switch (kernel) {
    case Kernel::kMpi:
      co_await coll::body::raw_allgather(port, mine, in.size(), out.output, config);
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread:
      co_await coll::body::ccoll_allgather(port, mine, in.size(), out.output, config);
      break;
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread:
      co_await coll::body::hzccl_allgather(port, mine, in.size(), out.output, config);
      break;
  }
  co_return out;
}

}  // namespace

struct EngineImpl {
  /// A fleet rank: its timeline (the Endpoint; stopped() once its crash or
  /// hang fired, its clock stopped there) plus the scheduling index.
  struct RankState : simmpi::Endpoint {
    using Endpoint::Endpoint;
    std::vector<int> items;  ///< job ids that may have a runnable step here
    uint64_t version = 0;    ///< bumped on any mutation; stales heap hints
    bool dirty = false;
  };

  struct Waiter {
    std::coroutine_handle<> handle;
    RecvAwaitable* awaitable = nullptr;
    int src_phys = -1;
    int tag = -1;
    bool parked() const { return awaitable != nullptr; }
  };

  struct Root {
    Task<RootOutcome> task;  ///< invalid until the root starts
    bool settled = false;
    RootOutcome result;
  };

  enum class Phase { kQueued, kPending, kActive, kDone };

  struct JobState {
    int id = -1;
    bool reserved = false;  ///< marker-only id (fused constituent)
    Kernel kernel = Kernel::kMpi;
    ICollOp op = ICollOp::kAllreduce;
    JobConfig config;
    coll::CollectiveConfig cc;
    RankInputFn input;
    SubmitOptions opt;
    coll::AllreduceAlgo algo = coll::AllreduceAlgo::kRing;

    Phase phase = Phase::kQueued;
    std::vector<int> group;     ///< fleet ranks of the current attempt
    std::vector<int> vrank_of;  ///< fleet-sized; -1 = not a member
    int attempt = 0;
    double last_settled = 0.0;    ///< latest clock a root settled at
    std::vector<Root> roots;      ///< by virtual rank
    std::vector<Waiter> waiters;  ///< by virtual rank

    /// The job's rank-failure control plane over job-relative ranks (fleet
    /// rank - opt.first_rank), and the round generations already acted on.
    simmpi::ControlPlane plane;
    uint64_t agreements_seen = 0;
    uint64_t shrinks_seen = 0;

    /// The job's wire, by job-relative physical rank: each rank's inbox
    /// and its own link state.
    std::vector<simmpi::Inbox> inboxes;
    std::vector<simmpi::LinkState> links;

    /// Verify/recover counters, accumulated across attempts (a retry keeps
    /// the tallies of the failed run, like the threaded Comm does).
    IntegrityStats integrity;
    /// Poisoned-combine injectors by job-relative physical rank, armed
    /// around each resume when FaultPlan::poison > 0; like the threaded
    /// runtime's per-rank-thread injectors they live across attempts.
    std::vector<integrity::SdcInjector> injectors;

    JobOutcome out;

    int rel(int rank) const { return rank - opt.first_rank; }
    bool dead(int rank) const { return plane.state(rel(rank)).dead; }
    /// Event::job of the job's spans.
    uint8_t span_job() const { return static_cast<uint8_t>(id); }
  };

  /// The job whose step is runnable earliest on a rank: a start when its
  /// root has not started, a wake otherwise.
  struct Candidate {
    double ready = kInf;
    int job = -1;
    bool valid() const { return job >= 0; }
  };

  struct Hint {
    double t;
    int rank;
    uint64_t version;
  };
  struct HintLater {
    bool operator()(const Hint& a, const Hint& b) const {
      return a.t != b.t ? a.t > b.t : a.rank > b.rank;
    }
  };

  // -------------------------------------------------------------------------

  EngineConfig cfg;
  BufferPool pool;
  std::deque<RankState> ranks;  ///< deque: RankState owns a non-movable Recorder
  std::vector<simmpi::RankFault> resolved_faults;
  std::deque<JobState> jobs;  ///< stable addresses; id == index
  std::vector<int> queued;    ///< ids awaiting enqueue processing, sorted
  size_t next_queued = 0;
  std::vector<int> pending;  ///< enqueued, awaiting grant
  int active = 0;
  uint32_t epoch = 0;
  trace::Recorder sched_tracer;
  double sched_hwm = 0.0;
  std::priority_queue<Hint, std::vector<Hint>, HintLater> heap;
  std::vector<int> dirty_ranks;

  explicit EngineImpl(const EngineConfig& config) : cfg(config) {
    if (cfg.fleet_ranks <= 0) throw Error("sched::Engine: fleet_ranks must be positive");
    if (cfg.max_concurrent < 0) throw Error("sched::Engine: max_concurrent must be >= 0");
    if (cfg.aging_quantum_s <= 0.0) throw Error("sched::Engine: aging_quantum_s must be positive");
    cfg.faults.validate();
    // The same placement as the threaded runtime's, so a FaultPlan resolves
    // to one schedule in both executors.
    resolved_faults = cfg.faults.resolve_rank_faults(cfg.fleet_ranks);
    for (int i = 0; i < cfg.fleet_ranks; ++i) {
      ranks.emplace_back(i, cfg.fleet_ranks, cfg.net, resolved_faults);
      ranks.back().enable_trace(cfg.trace, pool);
    }
    if (cfg.trace.enabled) sched_tracer.enable(cfg.trace.capacity, pool);
  }

  ~EngineImpl() {
    // Coroutine frames reference the pool through their Ports; drop them
    // before the pool goes away.
    for (JobState& j : jobs) {
      j.waiters.clear();
      j.roots.clear();
    }
    for (RankState& r : ranks) r.release_trace(pool);
    sched_tracer.disable(pool);
  }

  // -- Bookkeeping ----------------------------------------------------------

  void mark_dirty(int rank) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    if (!r.dirty) {
      r.dirty = true;
      dirty_ranks.push_back(rank);
    }
  }

  /// One value per fleet rank, read off its state.
  template <class Read>
  auto per_rank(Read read) const {
    std::vector<decltype(read(ranks.front()))> out;
    for (const RankState& r : ranks) out.push_back(read(r));
    return out;
  }

  void mark_members_dirty(const JobState& j) {
    for (const int member : j.group) mark_dirty(member);
  }

  void add_item(int rank, int job) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    if (std::find(r.items.begin(), r.items.end(), job) == r.items.end()) {
      r.items.push_back(job);
    }
    mark_dirty(rank);
  }

  void flush_dirty() {
    for (const int rank : dirty_ranks) {
      RankState& r = ranks[static_cast<size_t>(rank)];
      r.dirty = false;
      ++r.version;
      const Candidate c = best_candidate(rank);
      if (c.valid()) heap.push(Hint{c.ready, rank, r.version});
    }
    dirty_ranks.clear();
  }

  /// Virtual rank `vrank` of job `job`'s current attempt.
  RankState& member(int job, int vrank) {
    const JobState& j = jobs[static_cast<size_t>(job)];
    return ranks[static_cast<size_t>(j.group[static_cast<size_t>(vrank)])];
  }

  /// Scheduler lifecycle marker on the pseudo-rank stream.  Times are
  /// monotonized to the stream's high-water mark so the exported stream
  /// stays sorted (check_chrome_json per-tid ordering) even when lifecycle
  /// decisions for different jobs interleave.
  void marker(trace::EventKind kind, int job, double t, uint8_t aux = 0, uint64_t bytes = 0) {
    if (!sched_tracer.enabled()) return;
    const double tt = std::max(t, sched_hwm);
    sched_hwm = tt;
    sched_tracer.record({.t0 = tt, .t1 = tt, .bytes = bytes, .kind = kind, .aux = aux,
                         .job = static_cast<uint8_t>(job)});
  }

  // -- Fault machinery ------------------------------------------------------

  /// Count one transport operation of `rank`: throws RankDeadError when its
  /// scheduled crash or hang fires.
  void count_op(int rank) {
    if (const simmpi::RankFault* f = ranks[static_cast<size_t>(rank)].count_op()) {
      throw RankDeadError{f->kind == simmpi::RankFaultKind::kHang};
    }
  }

  /// A rank died (its Endpoint fired a crash or hang; its posted eager
  /// frames stay consumable): settle the frames it holds back — a hung NIC
  /// drains them, a crashed one abandons them to timeout/NACK recovery —
  /// retire it in the control plane of every active job it belongs to,
  /// tearing down its unsettled roots, and bump the fleet epoch.
  void handle_death(int rank, bool hang) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    ++epoch;
    r.items.clear();
    mark_dirty(rank);
    for (JobState& j : jobs) {
      if (j.phase != Phase::kActive) continue;
      const int v = j.vrank_of[static_cast<size_t>(rank)];
      if (v < 0) continue;
      flush(j, rank, hang ? simmpi::WireOutcome::kDelivered : simmpi::WireOutcome::kDropped);
      if (!j.roots[static_cast<size_t>(v)].settled) teardown(j, v);
      j.plane.retire(j.rel(rank), /*dead=*/true, r.now());
      mark_members_dirty(j);
      progress(j);
    }
  }

  // -- Transport ------------------------------------------------------------

  /// Inter-node transfers share the fabric with every other active job: a
  /// job's rate is capped at its weighted share of the fleet-wide congested
  /// bandwidth.  A job's flows are those of its whole placement, shrunk or
  /// not, as the threaded runtime prices them — with a single active job the
  /// cap is the job's solo rate and the price NetModel::link_seconds alone.
  double rate_cap(const JobState& j) const {
    int total_flows = 0;
    double total_weight = 0.0;
    for (const JobState& a : jobs) {
      if (a.phase != Phase::kActive) continue;
      total_flows += cfg.net.congestion_flows(a.config.nranks);
      total_weight += a.opt.weight;
    }
    // `j` itself is active, so total_weight > 0.
    return cfg.net.effective_bytes_per_s(total_flows) * (j.opt.weight / total_weight);
  }

  /// Job `j`'s link layer, priced over its placement.
  simmpi::Link link(const JobState& j) const { return {cfg.faults, cfg.net, j.config.nranks}; }
  simmpi::Inbox& inbox(JobState& j, int rank) {
    return j.inboxes[static_cast<size_t>(j.rel(rank))];
  }
  simmpi::LinkState& link_state(JobState& j, int rank) {
    return j.links[static_cast<size_t>(j.rel(rank))];
  }

  /// Settle every frame `rank` holds back in job `j` (reorder fault).
  void flush(JobState& j, int rank, simmpi::WireOutcome outcome) {
    simmpi::LinkState& mine = link_state(j, rank);
    while (!mine.held.empty()) {
      const int dst = mine.held.begin()->first;
      simmpi::Link::release(inbox(j, dst), mine, dst, outcome);
      mark_dirty(dst);
    }
  }

  void port_send(int job, int vrank, int dst, int tag, std::span<const uint8_t> payload) {
    JobState& j = jobs[static_cast<size_t>(job)];
    const int src_phys = j.group[static_cast<size_t>(vrank)];
    const int dst_phys = j.group[static_cast<size_t>(dst)];
    RankState& r = ranks[static_cast<size_t>(src_phys)];
    count_op(src_phys);
    const simmpi::Link wire = link(j);
    simmpi::LinkState& mine = link_state(j, src_phys);
    wire.stall(r, simmpi::FaultKind::kStallSend, j.span_job());
    const uint64_t seq = r.inject(dst_phys, tag, payload.size(), j.span_job());
    j.out.payload_bytes_sent += payload.size();
    wire.send(inbox(j, dst_phys), mine, dst_phys,
              wire.frame(r, mine, dst_phys, tag, seq, j.plane.epoch(), payload));
    mark_dirty(dst_phys);
    mark_dirty(src_phys);
  }

  /// A receive's entry, a transport operation: the rank's fault check, its
  /// held frames drained, its stall die, then the discards of duplicates
  /// and stale frames; the receive then parks until the link layer can
  /// complete it.
  void register_waiter(RecvAwaitable* aw, std::coroutine_handle<> h) {
    JobState& j = jobs[static_cast<size_t>(aw->job_)];
    const int me_phys = j.group[static_cast<size_t>(aw->vrank_)];
    const int src_phys = j.group[static_cast<size_t>(aw->src_)];
    count_op(me_phys);
    RankState& r = ranks[static_cast<size_t>(me_phys)];
    const simmpi::Link wire = link(j);
    simmpi::LinkState& mine = link_state(j, me_phys);
    flush(j, me_phys, simmpi::WireOutcome::kDelivered);
    wire.stall(r, simmpi::FaultKind::kStallRecv, j.span_job());
    wire.discard(inbox(j, me_phys), r, mine, src_phys, j.plane.epoch(), j.span_job());
    j.waiters[static_cast<size_t>(aw->vrank_)] = Waiter{h, aw, src_phys, aw->tag_};
    mark_dirty(me_phys);
  }

  std::vector<uint8_t> port_refetch(int job, int vrank, int src, int tag, simmpi::Refetch mode,
                                    size_t raw_bytes_hint) {
    JobState& j = jobs[static_cast<size_t>(job)];
    const int me_phys = j.group[static_cast<size_t>(vrank)];
    return link(j).refetch(inbox(j, me_phys), ranks[static_cast<size_t>(me_phys)],
                           j.group[static_cast<size_t>(src)], tag, j.plane.epoch(), mode,
                           raw_bytes_hint, j.span_job(), rate_cap(j));
  }

  // -- Runnable-set scan ----------------------------------------------------

  Candidate best_candidate(int rank) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    Candidate best;
    for (size_t i = 0; i < r.items.size();) {
      const int id = r.items[i];
      JobState& j = jobs[static_cast<size_t>(id)];
      const int v = j.phase == Phase::kActive ? j.vrank_of[static_cast<size_t>(rank)] : -1;
      if (v < 0 || j.roots[static_cast<size_t>(v)].settled) {
        r.items[i] = r.items.back();
        r.items.pop_back();
        continue;
      }
      Candidate c;
      const Waiter& w = j.waiters[static_cast<size_t>(v)];
      if (!j.roots[static_cast<size_t>(v)].task.valid()) {
        c = Candidate{std::max(r.now(), j.out.grant_vtime), id};
      } else if (w.parked()) {
        const double ready = link(j).ready(inbox(j, rank), r, w.src_phys, w.tag, j.plane.epoch(),
                                           rate_cap(j));
        const simmpi::ControlPlane::RankState& src = j.plane.state(j.rel(w.src_phys));
        if (ready < kInf) {
          c = Candidate{ready, id};
        } else if (src.silent()) {
          // Nothing posted, and a silent peer never posts again: the health
          // machine gives up on it at its deadline.
          c = Candidate{j.plane.dead_at(r.now(), src.stop_vtime), id};
        }
      }
      if (c.valid() && (!best.valid() || c.ready < best.ready ||
                        (c.ready == best.ready && c.job < best.job))) {
        best = c;
      }
      ++i;
    }
    return best;
  }

  // -- Step execution -------------------------------------------------------

  void resume_and_settle(JobState& j, int vrank, std::coroutine_handle<> h) {
    if (cfg.faults.poison > 0.0) {
      // Compute-side SDC: the rank's own injector for the duration of the
      // resume, as the threaded runtime arms one around each rank body.
      const int rel = j.rel(j.group[static_cast<size_t>(vrank)]);
      const integrity::ScopedSdcInjector scoped(&j.injectors[static_cast<size_t>(rel)]);
      h.resume();
    } else {
      // No plan-driven poison: an injector armed by the caller stays in effect.
      h.resume();
    }
    Root& root = j.roots[static_cast<size_t>(vrank)];
    if (root.task.valid() && root.task.done() && !root.settled) conclude(j, vrank);
  }

  void exec_start(JobState& j, int rank) {
    const int v = j.vrank_of[static_cast<size_t>(rank)];
    RankState& r = ranks[static_cast<size_t>(rank)];
    Root& root = j.roots[static_cast<size_t>(v)];

    // Idle gap between the rank's own timeline and the grant: unattributed
    // wait (it belongs to no job's grant..complete window).
    r.wait_until(j.out.grant_vtime, trace::kNoJob);

    // Inputs are keyed by the job-local rank (fleet rank - first_rank), so a
    // survivor contributes the same vector on every attempt.
    std::vector<float> input = j.input(j.rel(rank));
    if (v == 0) j.out.input_bytes_per_rank = input.size() * sizeof(float);

    // Algorithm marker, exactly as run_collective stamps it: non-ring
    // schedules only, first attempt only, at the origin of the job's spans.
    if (j.attempt == 0 && j.algo != coll::AllreduceAlgo::kRing) {
      r.mark(trace::EventKind::kPack, j.span_job(),
             static_cast<uint8_t>(trace::kAuxAlgoBase + static_cast<int>(j.algo)),
             input.size() * sizeof(float));
    }

    root.task =
        run_rank_collective(Port(this, j.id, v), j.kernel, j.op, j.algo, j.cc, std::move(input));
    mark_dirty(rank);
    resume_and_settle(j, v, root.task.handle());
  }

  /// Resume a parked receive with what the link layer delivers, or, its
  /// source being silent with nothing on hand, with a revoke after the
  /// health machine's deadlines.
  void exec_wake(JobState& j, int rank) {
    const int v = j.vrank_of[static_cast<size_t>(rank)];
    RankState& r = ranks[static_cast<size_t>(rank)];
    const Waiter w = std::exchange(j.waiters[static_cast<size_t>(v)], Waiter{});
    std::optional<simmpi::Delivery> delivery =
        link(j).take(inbox(j, rank), r, link_state(j, rank), w.src_phys, w.tag, j.plane.epoch(),
                     j.span_job(), w.awaitable->into_, rate_cap(j));
    if (delivery) {
      w.awaitable->delivery_ = std::move(*delivery);
    } else {
      const double t0 = r.now();
      const double stop = j.plane.state(j.rel(w.src_phys)).stop_vtime;
      r.detect(w.src_phys, j.plane.suspect_at(t0, stop), j.plane.dead_at(t0, stop), j.span_job());
      w.awaitable->error_ = std::make_exception_ptr(AttemptRevoked{});
    }
    mark_dirty(rank);
    resume_and_settle(j, v, w.handle);
  }

  // -- Settlement -----------------------------------------------------------

  /// Root `v` is done with the current attempt, at its rank's clock.
  void settle(JobState& j, int v) {
    const int rank = j.group[static_cast<size_t>(v)];
    j.roots[static_cast<size_t>(v)].settled = true;
    j.last_settled = std::max(j.last_settled, ranks[static_cast<size_t>(rank)].now());
    mark_dirty(rank);
  }

  /// Settle root `v` without resuming it: forget its parked receive and
  /// destroy its suspended frame chain.
  void teardown(JobState& j, int v) {
    j.waiters[static_cast<size_t>(v)] = Waiter{};
    j.roots[static_cast<size_t>(v)].task.reset();
    settle(j, v);
  }

  /// Root `v`'s coroutine returned or threw.  A finished or revoked attempt
  /// arrives at the agreement (without rank faults the last root completes
  /// the job); the rank's own fault retires it fleet-wide; any other error
  /// fails the job at once, without a retry.
  void conclude(JobState& j, int v) {
    settle(j, v);
    Root& root = j.roots[static_cast<size_t>(v)];
    const int rank = j.group[static_cast<size_t>(v)];
    try {
      root.result = root.task.take();
    } catch (const RankDeadError& e) {
      handle_death(rank, e.hang);
      return;
    } catch (const AttemptRevoked&) {
      // Detection revoked this attempt; the agreement settles who failed.
    } catch (const std::exception& e) {
      for (size_t u = 0; u < j.roots.size(); ++u) {
        if (!j.roots[u].settled) teardown(j, static_cast<int>(u));
      }
      finish_job(j, j.last_settled, e.what());
      return;
    }
    // A returning or revoked rank drains its NIC: no peer blocks on a frame
    // it holds back.
    flush(j, rank, simmpi::WireOutcome::kDelivered);
    if (!cfg.faults.rank_faults_enabled()) {
      if (std::all_of(j.roots.begin(), j.roots.end(), [](const Root& u) { return u.settled; })) {
        finish_job(j, j.last_settled, {});
      }
      return;
    }
    j.plane.arrive_agreement(j.rel(rank), ranks[static_cast<size_t>(rank)].now());
    mark_members_dirty(j);
    progress(j);
  }

  /// Act on a round the job's control plane released since the last call,
  /// or on a group with no live member left to arrive at one.
  void progress(JobState& j) {
    if (j.phase != Phase::kActive) return;
    if (j.plane.round(RoundKind::kAgreement).generation != j.agreements_seen) {
      ++j.agreements_seen;
      release_agreement(j);
    } else if (j.plane.round(RoundKind::kShrink).generation != j.shrinks_seen) {
      ++j.shrinks_seen;
      release_shrink(j);
    } else if (std::all_of(j.group.begin(), j.group.end(), [&](int m) { return j.dead(m); })) {
      double t_end = 0.0;  // the last death: dead clocks stopped there
      for (const int m : j.group) {
        t_end = std::max(t_end, ranks[static_cast<size_t>(m)].now());
        if (std::count(j.out.failed_ranks.begin(), j.out.failed_ranks.end(), m) == 0) {
          j.out.failed_ranks.push_back(m);
        }
      }
      finish_job(j, t_end, "all ranks of the job failed");
    }
  }

  /// The agreement released its survivors: each charges the round, then the
  /// job completes, fails for good, or every survivor backs off into the
  /// shrink — a transport operation, where a scheduled fault can fire.
  void release_agreement(JobState& j) {
    const std::vector<int> failed = j.plane.agreed_failed();
    std::vector<int> survivors;
    double t_end = 0.0;
    for (const int rank : j.group) {
      if (j.dead(rank)) continue;
      survivors.push_back(rank);
      RankState& r = ranks[static_cast<size_t>(rank)];
      r.agree(j.plane.round(RoundKind::kAgreement).release, j.plane.epoch(), failed.size(),
              j.span_job());
      t_end = std::max(t_end, r.now());
    }
    for (const int m : failed) j.out.failed_ranks.push_back(m + j.opt.first_rank);
    const int failures = j.attempt + 1;
    if (failed.empty() || failures >= j.config.retry.max_attempts) {
      finish_job(j, t_end, failed.empty() ? "" : "ranks failed and the retry budget is exhausted");
      return;
    }
    std::vector<std::pair<int, bool>> died;  // (rank, hung)
    for (const int rank : survivors) {
      RankState& r = ranks[static_cast<size_t>(rank)];
      r.backoff(j.plane.backoff(j.config.retry, failures), failures, j.span_job());
      if (const simmpi::RankFault* f = r.count_op()) {
        died.emplace_back(rank, f->kind == simmpi::RankFaultKind::kHang);
      } else {
        j.plane.arrive_shrink(j.rel(rank), r.now());
      }
    }
    for (const auto& [rank, hang] : died) handle_death(rank, hang);
    progress(j);
  }

  /// The shrink released its survivors: each purges the failed attempt's
  /// undelivered frames from its inbox as stale and charges the round; the
  /// next attempt starts over the new group.
  void release_shrink(JobState& j) {
    j.group.clear();
    for (const int m : j.plane.members()) j.group.push_back(m + j.opt.first_rank);
    for (const int rank : j.group) {
      if (j.dead(rank)) continue;  // died on its way through the shrink
      const size_t stale = inbox(j, rank).purge(j.plane.epoch());
      ranks[static_cast<size_t>(rank)].shrink(j.plane.round(RoundKind::kShrink).release,
                                              j.plane.epoch(), stale, j.span_job());
    }
    ++j.attempt;
    start_attempt(j);
  }

  /// One root and one receive slot per member of `j.group`.  A member that
  /// died on its way through the shrink never starts: survivors detect it.
  void start_attempt(JobState& j) {
    j.vrank_of.assign(static_cast<size_t>(cfg.fleet_ranks), -1);
    j.roots.clear();
    j.roots.resize(j.group.size());
    j.waiters.assign(j.group.size(), Waiter{});
    for (size_t v = 0; v < j.group.size(); ++v) {
      j.vrank_of[static_cast<size_t>(j.group[v])] = static_cast<int>(v);
      if (ranks[static_cast<size_t>(j.group[v])].stopped()) {
        settle(j, static_cast<int>(v));
      } else {
        add_item(j.group[v], j.id);
      }
    }
  }

  /// The job is over at `t_end`: completed when `error` is empty, failed
  /// with it otherwise.
  void finish_job(JobState& j, double t_end, std::string error) {
    j.phase = Phase::kDone;
    j.out.completed = error.empty();
    j.out.error = std::move(error);
    if (j.out.completed) {
      j.out.rank0_output = std::move(j.roots[0].result.output);
      for (const Root& root : j.roots) j.out.pipeline_stats += root.result.stats;
    }
    for (const int rank : j.group) {
      if (!j.dead(rank)) j.out.final_group.push_back(rank);
    }
    j.out.complete_vtime = t_end;
    j.out.final_epoch = epoch;
    j.out.attempts = j.attempt + 1;
    for (const integrity::SdcInjector& inj : j.injectors) {
      j.integrity.poisoned_combines += inj.injected;
    }
    j.out.integrity = j.integrity;
    j.inboxes.clear();
    j.links.clear();
    j.waiters.clear();
    j.roots.clear();
    mark_members_dirty(j);
    const uint8_t complete_aux = j.out.completed ? 0 : 1;
    marker(trace::EventKind::kComplete, j.id, t_end, complete_aux, j.out.payload_bytes_sent);
    for (const SubmitOptions::FusedMember& m : j.opt.fused_members) {
      marker(trace::EventKind::kComplete, m.id, t_end, complete_aux);
    }
    --active;
    try_grant(t_end);
  }

  // -- Admission ------------------------------------------------------------

  void grant(JobState& j, double t) {
    j.phase = Phase::kActive;
    j.out.grant_vtime = std::max(t, j.out.enqueue_vtime);
    ++active;
    marker(trace::EventKind::kGrant, j.id, j.out.grant_vtime);
    for (const SubmitOptions::FusedMember& m : j.opt.fused_members) {
      marker(trace::EventKind::kGrant, m.id, j.out.grant_vtime);
    }

    j.group.clear();
    for (int p = j.opt.first_rank; p < j.opt.first_rank + j.config.nranks; ++p) {
      if (!ranks[static_cast<size_t>(p)].stopped()) j.group.push_back(p);
    }
    if (j.group.empty()) {
      finish_job(j, j.out.grant_vtime, "every rank of the job's placement is already dead");
      return;
    }
    j.algo = resolve_job_algo(j.kernel, j.op == ICollOp::kAllreduce, j.config, j.input);
    j.out.algo = j.algo;

    j.plane = simmpi::ControlPlane(j.config.nranks, cfg.net.latency_s, cfg.faults);
    j.inboxes.resize(static_cast<size_t>(j.config.nranks));
    j.links.resize(static_cast<size_t>(j.config.nranks));
    std::vector<int> members;
    for (const int rank : j.group) members.push_back(j.rel(rank));
    j.plane.reset(std::move(members));
    start_attempt(j);
  }

  void try_grant(double t) {
    while (!pending.empty() && (cfg.max_concurrent == 0 || active < cfg.max_concurrent)) {
      size_t best_at = 0;
      auto key_of = [&](int id) {
        const JobState& j = jobs[static_cast<size_t>(id)];
        const double waited = std::max(0.0, t - j.out.enqueue_vtime);
        const long aged = static_cast<long>(j.opt.priority) -
                          static_cast<long>(waited / cfg.aging_quantum_s);
        return std::tuple<long, double, uint64_t, int>(
            aged, j.out.enqueue_vtime,
            simmpi::fault_mix(cfg.seed, kGrantStream, static_cast<uint64_t>(id)), id);
      };
      for (size_t i = 1; i < pending.size(); ++i) {
        if (key_of(pending[i]) < key_of(pending[best_at])) best_at = i;
      }
      const int id = pending[best_at];
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(best_at));
      grant(jobs[static_cast<size_t>(id)], t);
    }
  }

  void process_enqueue() {
    // Drain every arrival at this instant before granting, so simultaneous
    // submissions compete on priority, not on submission order.
    const double te =
        jobs[static_cast<size_t>(queued[next_queued])].out.enqueue_vtime;
    while (next_queued < queued.size() &&
           jobs[static_cast<size_t>(queued[next_queued])].out.enqueue_vtime == te) {
      const int id = queued[next_queued++];
      JobState& j = jobs[static_cast<size_t>(id)];
      // Fused constituents: their arrival and fusion markers bracket the
      // super-job's own enqueue.
      for (const SubmitOptions::FusedMember& m : j.opt.fused_members) {
        marker(trace::EventKind::kEnqueue, m.id, m.enqueue_vtime);
      }
      marker(trace::EventKind::kEnqueue, id, te, 0, static_cast<uint64_t>(j.config.nranks));
      for (const SubmitOptions::FusedMember& m : j.opt.fused_members) {
        marker(trace::EventKind::kFuse, m.id, te);
      }
      j.phase = Phase::kPending;
      pending.push_back(id);
    }
    try_grant(te);
  }

  // -- Main loop ------------------------------------------------------------

  /// Execute one runnable step or enqueue event; false when nothing is left.
  bool step() {
    const double t_enq = next_queued < queued.size()
                             ? jobs[static_cast<size_t>(queued[next_queued])].out.enqueue_vtime
                             : kInf;
    double t_item = kInf;
    while (!heap.empty()) {
      const Hint& top = heap.top();
      if (ranks[static_cast<size_t>(top.rank)].version != top.version) {
        heap.pop();
        continue;
      }
      t_item = top.t;
      break;
    }

    if (t_enq <= t_item) {
      if (t_enq == kInf) return false;
      process_enqueue();
      flush_dirty();
      return true;
    }

    const Hint top = heap.top();
    heap.pop();
    const Candidate c = best_candidate(top.rank);
    if (!c.valid()) return true;
    if (c.ready != top.t) {
      heap.push(Hint{c.ready, top.rank, ranks[static_cast<size_t>(top.rank)].version});
      return true;
    }

    JobState& j = jobs[static_cast<size_t>(c.job)];
    const int v = j.vrank_of[static_cast<size_t>(top.rank)];
    // Every transport counter a step bumps is its rank's, in its job: the
    // job's counters are what its steps added to the one per-rank count.
    const TransportStats before = ranks[static_cast<size_t>(top.rank)].transport();
    if (j.roots[static_cast<size_t>(v)].task.valid()) {
      exec_wake(j, top.rank);
    } else {
      exec_start(j, top.rank);
    }
    j.out.transport += ranks[static_cast<size_t>(top.rank)].transport() - before;
    flush_dirty();
    return true;
  }

  template <typename DonePred>
  void drain(DonePred done) {
    while (!done()) {
      if (!step()) {
        throw Error(
            "sched::Engine stalled: jobs outstanding but no rank-step is "
            "runnable (mismatched send/recv schedule?)");
      }
    }
  }

  // -- Submission -----------------------------------------------------------

  int new_job_slot() {
    const int id = static_cast<int>(jobs.size());
    if (id >= static_cast<int>(trace::kNoJob)) {
      throw Error("sched::Engine: at most 254 jobs per engine (trace attribution is 8-bit)");
    }
    jobs.emplace_back();
    jobs.back().id = id;
    return id;
  }

  Request submit(Kernel kernel, ICollOp op, const JobConfig& config, const RankInputFn& input,
                 const SubmitOptions& options) {
    if (config.nranks <= 0) throw Error("sched::Engine: job nranks must be positive");
    if (options.first_rank < 0 || options.first_rank + config.nranks > cfg.fleet_ranks) {
      throw Error("sched::Engine: job placement [" + std::to_string(options.first_rank) + ", " +
                  std::to_string(options.first_rank + config.nranks) +
                  ") exceeds the fleet of " + std::to_string(cfg.fleet_ranks) + " ranks");
    }
    if (options.weight <= 0.0) throw Error("sched::Engine: job weight must be positive");
    if (options.enqueue_vtime < 0.0) {
      throw Error("sched::Engine: enqueue_vtime must be non-negative");
    }
    if (!input) throw Error("sched::Engine: a rank-input function is required");

    const int id = new_job_slot();
    JobState& j = jobs.back();
    j.kernel = kernel;
    j.op = op;
    j.config = config;
    // The fleet's fabric and fault plan are engine-wide; per-job net/fault
    // settings would let two jobs disagree about the shared hardware.
    j.config.net = cfg.net;
    j.config.faults = cfg.faults;
    j.cc = j.config.collective_config(kernel_mode(kernel));
    j.input = input;
    j.opt = options;
    j.injectors.resize(static_cast<size_t>(config.nranks));
    for (size_t i = 0; i < j.injectors.size(); ++i) {
      j.injectors[i].seed = cfg.faults.seed;
      j.injectors[i].poison = cfg.faults.poison;
      j.injectors[i].rank = static_cast<int>(i);
    }
    j.out.enqueue_vtime = options.enqueue_vtime;
    j.out.tenant = options.tenant;

    const auto later = [&](int a, int b) {
      const JobState& ja = jobs[static_cast<size_t>(a)];
      const JobState& jb = jobs[static_cast<size_t>(b)];
      if (ja.out.enqueue_vtime != jb.out.enqueue_vtime) {
        return ja.out.enqueue_vtime < jb.out.enqueue_vtime;
      }
      return ja.id < jb.id;
    };
    queued.insert(std::upper_bound(queued.begin() + static_cast<ptrdiff_t>(next_queued),
                                   queued.end(), id, later),
                  id);
    return Request{id};
  }
};

// ---------------------------------------------------------------------------
// Port / RecvAwaitable
// ---------------------------------------------------------------------------

int Port::size() const {
  return static_cast<int>(eng_->jobs[static_cast<size_t>(job_)].group.size());
}

int Port::phys_rank() const {
  return eng_->jobs[static_cast<size_t>(job_)].group[static_cast<size_t>(vrank_)];
}

const std::vector<int>& Port::group() const {
  return eng_->jobs[static_cast<size_t>(job_)].group;
}

const simmpi::NetModel& Port::net() const { return eng_->cfg.net; }

const simmpi::FaultPlan& Port::faults() const { return eng_->cfg.faults; }

BufferPool& Port::pool() const { return eng_->pool; }

void Port::send(int dst, int tag, std::span<const uint8_t> payload) {
  eng_->port_send(job_, vrank_, dst, tag, payload);
}

void Port::send_floats(int dst, int tag, std::span<const float> values) {
  eng_->port_send(job_, vrank_, dst, tag, bytes_of(values));
}

RecvAwaitable Port::recv(int src, int tag) {
  return RecvAwaitable(eng_, job_, vrank_, src, tag);
}

RecvIntoAwaitable Port::recv_into(int src, int tag, std::span<uint8_t> out) {
  return RecvIntoAwaitable(RecvAwaitable(eng_, job_, vrank_, src, tag, out));
}

std::vector<uint8_t> Port::refetch(int src, int tag, simmpi::Refetch mode, size_t raw_bytes_hint) {
  return eng_->port_refetch(job_, vrank_, src, tag, mode, raw_bytes_hint);
}

void Port::charge(simmpi::CostBucket bucket, double seconds, trace::EventKind kind,
                  uint64_t bytes, uint64_t bytes_out) {
  eng_->member(job_, vrank_).charge(bucket, seconds, kind, bytes, bytes_out,
                                    static_cast<uint8_t>(job_));
}

void Port::mark(trace::EventKind kind) {
  eng_->member(job_, vrank_).mark(kind, static_cast<uint8_t>(job_));
}

IntegrityStats& Port::integrity() {
  return eng_->jobs[static_cast<size_t>(job_)].integrity;
}

void RecvAwaitable::await_suspend(std::coroutine_handle<> h) {
  eng_->register_waiter(this, h);
}

std::vector<uint8_t> RecvAwaitable::await_resume() {
  if (error_) std::rethrow_exception(error_);
  return std::move(delivery_).take_payload();
}

void RecvIntoAwaitable::await_resume() {
  if (error_) std::rethrow_exception(error_);
  delivery_.copy_to(into_);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const EngineConfig& config) : impl_(std::make_unique<EngineImpl>(config)) {}

Engine::~Engine() = default;

Request Engine::submit(Kernel kernel, ICollOp op, const JobConfig& config,
                       const RankInputFn& input, const SubmitOptions& options) {
  return impl_->submit(kernel, op, config, input, options);
}

Request Engine::iallreduce(Kernel kernel, const JobConfig& config, const RankInputFn& input,
                           const SubmitOptions& options) {
  return impl_->submit(kernel, ICollOp::kAllreduce, config, input, options);
}

Request Engine::ireduce_scatter(Kernel kernel, const JobConfig& config, const RankInputFn& input,
                                const SubmitOptions& options) {
  return impl_->submit(kernel, ICollOp::kReduceScatter, config, input, options);
}

int Engine::reserve_job_id() {
  const int id = impl_->new_job_slot();
  EngineImpl::JobState& j = impl_->jobs.back();
  j.reserved = true;
  j.phase = EngineImpl::Phase::kDone;
  j.out.error = "reserved marker-only id (fused constituent)";
  return id;
}

bool Engine::test(const Request& request) const {
  if (!request.valid() || request.job >= static_cast<int>(impl_->jobs.size())) {
    throw Error("sched::Engine::test: invalid request");
  }
  return impl_->jobs[static_cast<size_t>(request.job)].phase == EngineImpl::Phase::kDone;
}

void Engine::wait(const Request& request) {
  if (!request.valid() || request.job >= static_cast<int>(impl_->jobs.size())) {
    throw Error("sched::Engine::wait: invalid request");
  }
  EngineImpl::JobState& j = impl_->jobs[static_cast<size_t>(request.job)];
  impl_->drain([&] { return j.phase == EngineImpl::Phase::kDone; });
}

void Engine::run() {
  impl_->drain([&] {
    for (const EngineImpl::JobState& j : impl_->jobs) {
      if (!j.reserved && j.phase != EngineImpl::Phase::kDone) return false;
    }
    return true;
  });
}

const JobOutcome& Engine::outcome(const Request& request) const {
  if (!test(request)) {
    throw Error("sched::Engine::outcome: job " + std::to_string(request.job) +
                " has not completed (call wait or run first)");
  }
  return impl_->jobs[static_cast<size_t>(request.job)].out;
}

int Engine::jobs() const { return static_cast<int>(impl_->jobs.size()); }

double Engine::makespan() const {
  double t = 0.0;
  for (const EngineImpl::JobState& j : impl_->jobs) {
    if (!j.reserved && j.phase == EngineImpl::Phase::kDone) {
      t = std::max(t, j.out.complete_vtime);
    }
  }
  return t;
}

uint32_t Engine::epoch() const { return impl_->epoch; }

trace::Trace Engine::trace() const {
  trace::Trace t;
  if (!impl_->cfg.trace.enabled) return t;
  t.ranks.reserve(impl_->ranks.size() + 1);
  for (const EngineImpl::RankState& r : impl_->ranks) {
    t.dropped_events += r.collect_trace(t.ranks.emplace_back());
  }
  t.ranks.push_back(impl_->sched_tracer.snapshot());
  t.dropped_events += impl_->sched_tracer.dropped();
  return t;
}

std::vector<simmpi::ClockReport> Engine::clock_reports() const {
  return impl_->per_rank([](const EngineImpl::RankState& r) { return r.clock().report(); });
}

std::vector<TransportStats> Engine::transport_stats() const {
  return impl_->per_rank([](const EngineImpl::RankState& r) { return r.transport(); });
}

std::vector<HealthStats> Engine::health_stats() const {
  return impl_->per_rank([](const EngineImpl::RankState& r) { return r.health(); });
}

}  // namespace hzccl::sched
