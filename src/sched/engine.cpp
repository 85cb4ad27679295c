// The multi-tenant progress engine (see include/hzccl/sched/engine.hpp).
//
// One OS thread, many virtual clocks.  Each rank of each job runs its
// collective as a lazy coroutine; the engine is a discrete-event loop that
// repeatedly executes the runnable rank-step with the smallest ready virtual
// time.  A rank-step is one of
//
//   start:  a granted job's rank begins its collective at
//           max(rank clock, grant time);
//   recv:   a parked receive whose matching frame has been posted; ready at
//           max(rank clock, sender stamp) + fair-share transfer time;
//   abort:  a parked survivor of a failed attempt; ready at the failure
//           detection deadline.
//
// Determinism: ready times are pure functions of the virtual clocks and the
// posted frames, and ties break on (rank, job id), so the same configuration
// replays the same schedule exactly — the property the sched tier's replay
// tests pin.  The runnable set is indexed by a per-rank item list plus a
// lazily invalidated min-heap of (time, rank) hints; a hint is trusted only
// if the rank's version still matches and a fresh scan reproduces its time.
#include "hzccl/sched/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

#include "hzccl/cluster/autotune.hpp"
#include "hzccl/integrity/sdc.hpp"
#include "hzccl/sched/icoll.hpp"
#include "hzccl/simmpi/clock.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::sched {

using simmpi::CostBucket;

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
/// engine can classify the death in settle_root.
struct RankDeadError {};

/// Deposited into every parked survivor of a failed attempt after the
/// detection charges; unwinds the survivor cleanly.
struct JobAttemptAbort {};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Admission tie-break stream.
constexpr uint64_t kGrantStream = 0x47524E54ULL;  // "GRNT"

int ceil_log2(int n) {
  int bits = 0;
  for (int v = 1; v < n; v <<= 1) ++bits;
  return bits;
}

}  // namespace

struct EngineImpl {
  struct Msg {
    std::vector<uint8_t> payload;
    double stamp = 0.0;  ///< sender clock after injection
    uint64_t seq = 0;
  };

  struct RankState {
    simmpi::VirtualClock clock;
    trace::Recorder tracer;
    bool dead = false;
    double death_vtime = 0.0;
    double cost_factor = 1.0;
    uint64_t ops = 0;
    const simmpi::RankFault* stop_fault = nullptr;
    std::vector<uint64_t> send_seq;  ///< next seq per destination rank
    TransportStats transport;
    HealthStats health;
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
    Task<RootOutcome> task;
    bool started = false;
    bool settled = false;
    bool errored = false;
    double finish = 0.0;
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
    int unsettled = 0;
    std::vector<Root> roots;      ///< by virtual rank
    std::vector<Waiter> waiters;  ///< by virtual rank

    bool failed_attempt = false;
    bool abort_no_retry = false;
    std::string abort_error;
    double detect_vtime = 0.0;
    std::vector<int> newly_failed;

    std::unordered_map<uint64_t, std::deque<Msg>> chans;

    /// Verify/recover counters, accumulated across attempts (a retry keeps
    /// the tallies of the failed run, like the threaded Comm does).
    IntegrityStats integrity;
    /// Poisoned-combine injectors by job-relative physical rank, armed
    /// around each resume when FaultPlan::poison > 0; like the threaded
    /// runtime's per-rank-thread injectors they live across attempts.
    std::vector<integrity::SdcInjector> injectors;

    JobOutcome out;
  };

  enum class StepKind { kStart, kRecv, kAbort };

  struct Candidate {
    double ready = kInf;
    int job = -1;
    StepKind kind = StepKind::kStart;
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
  uint64_t grant_counter = 0;
  trace::Recorder sched_tracer;
  double sched_hwm = 0.0;
  std::priority_queue<Hint, std::vector<Hint>, HintLater> heap;
  std::vector<int> dirty_ranks;

  explicit EngineImpl(const EngineConfig& config) : cfg(config) {
    if (cfg.fleet_ranks <= 0) throw Error("sched::Engine: fleet_ranks must be positive");
    if (cfg.max_concurrent < 0) throw Error("sched::Engine: max_concurrent must be >= 0");
    if (cfg.aging_quantum_s <= 0.0) throw Error("sched::Engine: aging_quantum_s must be positive");
    if (cfg.faults.enabled()) {
      throw Error(
          "sched::Engine models a clean transport: link-fault probabilities "
          "(drop/corrupt/...) require the threaded Runtime");
    }
    if (cfg.faults.rank_faults_enabled()) cfg.faults.validate();
    // The same placement as the threaded runtime's, so a FaultPlan resolves
    // to one schedule in both executors.
    resolved_faults = cfg.faults.resolve_rank_faults(cfg.fleet_ranks);
    for (int i = 0; i < cfg.fleet_ranks; ++i) ranks.emplace_back();
    for (size_t i = 0; i < ranks.size(); ++i) {
      RankState& r = ranks[i];
      r.send_seq.assign(static_cast<size_t>(cfg.fleet_ranks), 0);
      if (cfg.trace.enabled) r.tracer.enable(cfg.trace.capacity, pool);
      const simmpi::RankFaultSlot slot =
          simmpi::rank_fault_slot(resolved_faults, static_cast<int>(i));
      r.cost_factor = slot.cost_factor;
      r.health.straggles = slot.straggler ? 1 : 0;
      r.stop_fault = slot.stop;
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
    for (RankState& r : ranks) r.tracer.disable(pool);
    sched_tracer.disable(pool);
  }

  // -- Bookkeeping ----------------------------------------------------------

  static uint64_t chan_key(int dst, int src, int tag) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(dst)) << 48) |
           (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(tag));
  }

  void mark_dirty(int rank) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    if (!r.dirty) {
      r.dirty = true;
      dirty_ranks.push_back(rank);
    }
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

  void record(RankState& r, const trace::Event& e) { r.tracer.record(e); }

  trace::Event make_event(trace::EventKind kind, double t0, double t1, int job) const {
    trace::Event e;
    e.kind = kind;
    e.t0 = t0;
    e.t1 = t1;
    e.job = job >= 0 ? static_cast<uint8_t>(job) : trace::kNoJob;
    return e;
  }

  /// Scheduler lifecycle marker on the pseudo-rank stream.  Times are
  /// monotonized to the stream's high-water mark so the exported stream
  /// stays sorted (check_chrome_json per-tid ordering) even when lifecycle
  /// decisions for different jobs interleave.
  void marker(trace::EventKind kind, int job, double t, uint8_t aux = 0, uint64_t bytes = 0) {
    if (!sched_tracer.enabled()) return;
    const double tt = std::max(t, sched_hwm);
    sched_hwm = tt;
    trace::Event e = make_event(kind, tt, tt, job);
    e.aux = aux;
    e.bytes = bytes;
    sched_tracer.record(e);
  }

  // -- Fault machinery ------------------------------------------------------

  /// Count one transport operation on `rank` and fire its scheduled fault if
  /// due.  Faults are checked at operation entry (send, recv registration);
  /// a hang is equivalent to a crash here — the rank simply stops, and its
  /// already-posted eager frames stay consumable, exactly as the threaded
  /// runtime's mailboxes keep a hung rank's sent frames alive.
  void note_op_or_die(int rank) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    ++r.ops;
    const simmpi::RankFault* f = r.stop_fault;
    if (f == nullptr || !f->due(r.ops, r.clock.now())) return;
    r.dead = true;
    r.death_vtime = r.clock.now();
    if (f->kind == simmpi::RankFaultKind::kHang) {
      ++r.health.hangs;
    } else {
      ++r.health.crashes;
    }
    throw RankDeadError{};
  }

  /// A rank died: tear down its parked work everywhere, mark every job it
  /// belonged to as failed, and bump the fleet epoch.
  void handle_death(int rank) {
    RankState& r = ranks[static_cast<size_t>(rank)];
    ++epoch;
    r.items.clear();
    mark_dirty(rank);
    const double detect = r.death_vtime + cfg.faults.recv_timeout_s;
    for (JobState& j : jobs) {
      if (j.phase != Phase::kActive) continue;
      const int v = j.vrank_of[static_cast<size_t>(rank)];
      if (v < 0) continue;
      Root& root = j.roots[static_cast<size_t>(v)];
      if (!root.settled) {
        // The dead rank's own collective: forget the parked receive and
        // destroy the suspended frame chain without resuming it.
        j.waiters[static_cast<size_t>(v)] = Waiter{};
        root.task.reset();
        root.settled = true;
        root.errored = true;
        root.finish = r.clock.now();
        --j.unsettled;
      }
      if (!j.failed_attempt) {
        j.failed_attempt = true;
        j.detect_vtime = detect;
      } else {
        j.detect_vtime = std::max(j.detect_vtime, detect);
      }
      j.newly_failed.push_back(rank);
      for (const int member : j.group) mark_dirty(member);
      if (j.unsettled == 0) finish_attempt(j);
    }
  }

  // -- Transport ------------------------------------------------------------

  /// Seconds one frame spends on the (src, dst) link.  Intra-node channels
  /// are uncontended.  Inter-node transfers share the fabric with every
  /// other active job: the rate is this job's weighted share of the
  /// fleet-wide congested bandwidth, capped at the job's solo (blocking
  /// runtime) rate — with a single active job the price degenerates exactly
  /// to NetModel::link_seconds.
  double transfer_seconds(const JobState& j, int src, int dst, size_t frame_bytes) const {
    const simmpi::NetModel& net = cfg.net;
    if (net.topo.same_node(src, dst)) {
      return net.intra_latency_s + static_cast<double>(frame_bytes) / net.intra_bytes_per_s();
    }
    const double solo =
        net.effective_bytes_per_s(net.congestion_flows(static_cast<int>(j.group.size())));
    int total_flows = 0;
    double total_weight = 0.0;
    for (const JobState& a : jobs) {
      if (a.phase != Phase::kActive) continue;
      total_flows += net.congestion_flows(static_cast<int>(a.group.size()));
      total_weight += a.opt.weight;
    }
    double rate = solo;
    if (total_weight > 0.0) {
      const double share =
          net.effective_bytes_per_s(total_flows) * (j.opt.weight / total_weight);
      rate = std::min(solo, share);
    }
    return net.latency_s + static_cast<double>(frame_bytes) / rate;
  }

  void port_send(int job, int vrank, int dst, int tag, std::span<const uint8_t> payload) {
    JobState& j = jobs[static_cast<size_t>(job)];
    const int src_phys = j.group[static_cast<size_t>(vrank)];
    const int dst_phys = j.group[static_cast<size_t>(dst)];
    RankState& r = ranks[static_cast<size_t>(src_phys)];
    note_op_or_die(src_phys);

    const double t0 = r.clock.now();
    r.clock.advance(cfg.net.link_latency_s(src_phys, dst_phys) * r.cost_factor, CostBucket::kMpi);
    const uint64_t seq = r.send_seq[static_cast<size_t>(dst_phys)]++;
    trace::Event e = make_event(trace::EventKind::kSend, t0, r.clock.now(), job);
    e.seq = seq;
    e.bytes = payload.size();
    e.peer = dst_phys;
    e.tag = tag;
    record(r, e);

    ++r.transport.frames_sent;
    ++j.out.transport.frames_sent;
    j.out.payload_bytes_sent += payload.size();

    Msg msg;
    msg.payload.assign(payload.begin(), payload.end());
    msg.stamp = r.clock.now();
    msg.seq = seq;
    j.chans[chan_key(dst_phys, src_phys, tag)].push_back(std::move(msg));
    mark_dirty(dst_phys);
    mark_dirty(src_phys);
  }

  void register_waiter(RecvAwaitable* aw, std::coroutine_handle<> h) {
    JobState& j = jobs[static_cast<size_t>(aw->job_)];
    const int me_phys = j.group[static_cast<size_t>(aw->vrank_)];
    note_op_or_die(me_phys);  // recv counts as a transport op at entry
    Waiter& w = j.waiters[static_cast<size_t>(aw->vrank_)];
    w.handle = h;
    w.awaitable = aw;
    w.src_phys = j.group[static_cast<size_t>(aw->src_)];
    w.tag = aw->tag_;
    mark_dirty(me_phys);
  }

  void port_charge(int job, int vrank, CostBucket bucket, double seconds, trace::EventKind kind,
                   uint64_t bytes, uint64_t bytes_out) {
    JobState& j = jobs[static_cast<size_t>(job)];
    const int me = j.group[static_cast<size_t>(vrank)];
    RankState& r = ranks[static_cast<size_t>(me)];
    const double t0 = r.clock.now();
    r.clock.advance(seconds * r.cost_factor, bucket);
    trace::Event e = make_event(kind, t0, r.clock.now(), job);
    e.bytes = bytes;
    e.bytes_out = bytes_out;
    record(r, e);
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
      const Root& root = j.roots[static_cast<size_t>(v)];
      const Waiter& w = j.waiters[static_cast<size_t>(v)];
      if (j.failed_attempt) {
        // Parked survivors unwind at the detection deadline; roots that had
        // not even started are torn down the same way (they were granted, so
        // they sit out the recovery sequence like everyone else).
        if (w.parked() || !root.started) {
          c = Candidate{std::max(r.clock.now(), j.detect_vtime), id, StepKind::kAbort};
        }
      } else if (!root.started) {
        c = Candidate{std::max(r.clock.now(), j.out.grant_vtime), id, StepKind::kStart};
      } else if (w.parked()) {
        const auto it = j.chans.find(chan_key(rank, w.src_phys, w.tag));
        if (it != j.chans.end() && !it->second.empty()) {
          const Msg& m = it->second.front();
          const double data_ready = std::max(r.clock.now(), m.stamp);
          const double transfer =
              transfer_seconds(j, w.src_phys, rank, simmpi::frame_size(m.payload.size())) *
              r.cost_factor;
          c = Candidate{data_ready + transfer, id, StepKind::kRecv};
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
      const int rel = j.group[static_cast<size_t>(vrank)] - j.opt.first_rank;
      const integrity::ScopedSdcInjector scoped(&j.injectors[static_cast<size_t>(rel)]);
      h.resume();
    } else {
      // No plan-driven poison: an injector armed by the caller stays in effect.
      h.resume();
    }
    Root& root = j.roots[static_cast<size_t>(vrank)];
    if (root.task.valid() && root.task.done() && !root.settled) settle_root(j, vrank);
  }

  void exec_start(JobState& j, int rank) {
    const int v = j.vrank_of[static_cast<size_t>(rank)];
    RankState& r = ranks[static_cast<size_t>(rank)];
    Root& root = j.roots[static_cast<size_t>(v)];

    // Idle gap between the rank's own timeline and the grant: unattributed
    // wait (it belongs to no job's grant..complete window).
    if (j.out.grant_vtime > r.clock.now()) {
      const double t0 = r.clock.now();
      r.clock.advance_to(j.out.grant_vtime, CostBucket::kMpi);
      record(r, make_event(trace::EventKind::kWait, t0, r.clock.now(), -1));
    }

    if (j.attempt > 0) {
      // Retry preamble, mirroring Comm::retry_backoff + shrink: the backoff
      // of this attempt, then one agreement-shaped rebuild charge.
      double t0 = r.clock.now();
      r.clock.advance(j.config.retry.backoff_for(j.attempt, j.config.faults.seed) * r.cost_factor,
                      CostBucket::kMpi);
      trace::Event backoff = make_event(trace::EventKind::kBackoff, t0, r.clock.now(), j.id);
      backoff.seq = static_cast<uint64_t>(j.attempt);
      record(r, backoff);
      t0 = r.clock.now();
      r.clock.advance(cfg.net.latency_s * ceil_log2(static_cast<int>(j.group.size())) +
                          cfg.net.latency_s,
                      CostBucket::kMpi);
      record(r, make_event(trace::EventKind::kShrink, t0, r.clock.now(), j.id));
      ++r.health.shrinks;
      ++r.health.retries;
    }

    // Inputs are keyed by the job-local rank (fleet rank - first_rank), so a
    // survivor contributes the same vector on every attempt.
    std::vector<float> input = j.input(rank - j.opt.first_rank);
    if (v == 0) j.out.input_bytes_per_rank = input.size() * sizeof(float);

    // Algorithm marker, exactly as run_collective stamps it: non-ring
    // schedules only, first attempt only, at the origin of the job's spans.
    if (j.attempt == 0 && j.algo != coll::AllreduceAlgo::kRing && r.tracer.enabled()) {
      trace::Event m =
          make_event(trace::EventKind::kPack, r.clock.now(), r.clock.now(), j.id);
      m.aux = static_cast<uint8_t>(trace::kAuxAlgoBase + static_cast<int>(j.algo));
      m.bytes = input.size() * sizeof(float);
      record(r, m);
    }

    root.task =
        run_rank_collective(Port(this, j.id, v), j.kernel, j.op, j.algo, j.cc, std::move(input));
    root.started = true;
    mark_dirty(rank);
    resume_and_settle(j, v, root.task.handle());
  }

  void exec_recv(JobState& j, int rank) {
    const int v = j.vrank_of[static_cast<size_t>(rank)];
    RankState& r = ranks[static_cast<size_t>(rank)];
    Waiter w = j.waiters[static_cast<size_t>(v)];
    j.waiters[static_cast<size_t>(v)] = Waiter{};

    auto& chan = j.chans[chan_key(rank, w.src_phys, w.tag)];
    Msg msg = std::move(chan.front());
    chan.pop_front();

    const double t_enter = r.clock.now();
    const double data_ready = std::max(t_enter, msg.stamp);
    if (data_ready > t_enter) {
      r.clock.advance_to(data_ready, CostBucket::kMpi);
      trace::Event wait = make_event(trace::EventKind::kWait, t_enter, data_ready, j.id);
      wait.peer = w.src_phys;
      wait.tag = w.tag;
      record(r, wait);
    }
    const double transfer =
        transfer_seconds(j, w.src_phys, rank, simmpi::frame_size(msg.payload.size())) *
        r.cost_factor;
    r.clock.advance(transfer, CostBucket::kMpi);
    trace::Event recv = make_event(trace::EventKind::kRecv, data_ready, r.clock.now(), j.id);
    recv.seq = msg.seq;
    recv.bytes = msg.payload.size();
    recv.peer = w.src_phys;
    recv.tag = w.tag;
    record(r, recv);

    ++r.transport.frames_accepted;
    ++j.out.transport.frames_accepted;

    w.awaitable->payload_ = std::move(msg.payload);
    mark_dirty(rank);
    resume_and_settle(j, v, w.handle);
  }

  void exec_abort(JobState& j, int rank) {
    const int v = j.vrank_of[static_cast<size_t>(rank)];
    RankState& r = ranks[static_cast<size_t>(rank)];
    Waiter w = j.waiters[static_cast<size_t>(v)];
    j.waiters[static_cast<size_t>(v)] = Waiter{};

    if (!j.abort_no_retry) {
      // The PR 5 recovery sequence, per surviving rank: wait out the receive
      // deadline (Suspect), the failure deadline (Dead), then one agreement
      // round over the group.
      const double t0 = r.clock.now();
      r.clock.advance_to(std::max(t0, j.detect_vtime), CostBucket::kMpi);
      record(r, make_event(trace::EventKind::kSuspect, t0, r.clock.now(), j.id));
      double t1 = r.clock.now();
      r.clock.advance(cfg.faults.fail_timeout_s, CostBucket::kMpi);
      record(r, make_event(trace::EventKind::kDetect, t1, r.clock.now(), j.id));
      t1 = r.clock.now();
      r.clock.advance(
          cfg.net.latency_s * (1 + ceil_log2(static_cast<int>(j.group.size()))),
          CostBucket::kMpi);
      record(r, make_event(trace::EventKind::kAgree, t1, r.clock.now(), j.id));
      ++r.health.suspects;
      r.health.dead_declared += j.newly_failed.size();
      ++r.health.agreements;
      ++r.health.failed_agreements;
    }

    mark_dirty(rank);
    if (w.parked()) {
      w.awaitable->error_ = std::make_exception_ptr(JobAttemptAbort{});
      resume_and_settle(j, v, w.handle);
    } else {
      // The root never started: nothing to unwind, just settle it.
      Root& root = j.roots[static_cast<size_t>(v)];
      root.task.reset();
      root.settled = true;
      root.errored = true;
      root.finish = r.clock.now();
      --j.unsettled;
      if (j.unsettled == 0) finish_attempt(j);
    }
  }

  // -- Settlement -----------------------------------------------------------

  void settle_root(JobState& j, int vrank) {
    Root& root = j.roots[static_cast<size_t>(vrank)];
    const int rank = j.group[static_cast<size_t>(vrank)];
    root.settled = true;
    root.finish = ranks[static_cast<size_t>(rank)].clock.now();
    --j.unsettled;
    try {
      root.result = root.task.take();
    } catch (const RankDeadError&) {
      root.errored = true;
      handle_death(rank);  // settles this root's siblings, marks jobs failed
      if (j.unsettled == 0 && j.phase == Phase::kActive) finish_attempt(j);
      return;
    } catch (const JobAttemptAbort&) {
      root.errored = true;
    } catch (const std::exception& e) {
      // A genuine collective failure (decode error, hz_add failure): the
      // whole job aborts without retry; parked siblings unwind uncharged.
      root.errored = true;
      if (!j.failed_attempt) {
        j.failed_attempt = true;
        j.abort_no_retry = true;
        j.abort_error = e.what();
        j.detect_vtime = root.finish;
        for (const int member : j.group) mark_dirty(member);
      }
    }
    mark_dirty(rank);
    if (j.unsettled == 0) finish_attempt(j);
  }

  void cleanup_job(JobState& j, double t_end, uint8_t complete_aux) {
    j.phase = Phase::kDone;
    j.out.complete_vtime = t_end;
    j.out.final_epoch = epoch;
    j.out.attempts = j.attempt + 1;
    for (const integrity::SdcInjector& inj : j.injectors) {
      j.integrity.poisoned_combines += inj.injected;
    }
    j.out.integrity = j.integrity;
    j.chans.clear();
    j.waiters.clear();
    j.roots.clear();
    for (const int member : j.group) mark_dirty(member);
    marker(trace::EventKind::kComplete, j.id, t_end, complete_aux, j.out.payload_bytes_sent);
    for (const SubmitOptions::FusedMember& m : j.opt.fused_members) {
      marker(trace::EventKind::kComplete, m.id, t_end, complete_aux);
    }
    --active;
    try_grant(t_end);
  }

  void finish_attempt(JobState& j) {
    double t_end = 0.0;
    for (const Root& root : j.roots) t_end = std::max(t_end, root.finish);

    if (!j.failed_attempt) {
      j.out.completed = true;
      j.out.rank0_output = std::move(j.roots[0].result.output);
      for (const Root& root : j.roots) j.out.pipeline_stats += root.result.stats;
      j.out.final_group = j.group;
      cleanup_job(j, t_end, 0);
      return;
    }

    std::sort(j.newly_failed.begin(), j.newly_failed.end());
    j.out.failed_ranks.insert(j.out.failed_ranks.end(), j.newly_failed.begin(),
                              j.newly_failed.end());
    std::vector<int> survivors;
    for (const int member : j.group) {
      if (!ranks[static_cast<size_t>(member)].dead) survivors.push_back(member);
    }

    const bool exhausted = j.abort_no_retry || survivors.empty() ||
                           j.attempt + 1 >= j.config.retry.max_attempts;
    if (exhausted) {
      if (j.abort_no_retry) {
        j.out.error = j.abort_error;
      } else if (survivors.empty()) {
        j.out.error = "all ranks of the job failed";
      } else {
        j.out.error = "ranks failed and the retry budget is exhausted";
      }
      j.out.final_group = std::move(survivors);
      cleanup_job(j, t_end, 1);
      return;
    }

    // Shrink-and-retry: a fresh attempt over the survivors.  The retry
    // preamble (backoff + rebuild) is charged per rank when it starts.
    ++j.attempt;
    j.failed_attempt = false;
    j.detect_vtime = 0.0;
    j.newly_failed.clear();
    j.chans.clear();
    j.group = std::move(survivors);
    std::fill(j.vrank_of.begin(), j.vrank_of.end(), -1);
    for (size_t v = 0; v < j.group.size(); ++v) {
      j.vrank_of[static_cast<size_t>(j.group[v])] = static_cast<int>(v);
    }
    j.roots.clear();
    j.roots.resize(j.group.size());
    j.waiters.assign(j.group.size(), Waiter{});
    j.unsettled = static_cast<int>(j.group.size());
    for (const int member : j.group) add_item(member, j.id);
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
      if (!ranks[static_cast<size_t>(p)].dead) j.group.push_back(p);
    }
    if (j.group.empty()) {
      j.out.error = "every rank of the job's placement is already dead";
      j.out.final_epoch = epoch;
      cleanup_job(j, j.out.grant_vtime, 1);
      return;
    }
    j.algo = resolve_job_algo(j.kernel, j.op == ICollOp::kAllreduce, j.config, j.input);
    j.out.algo = j.algo;

    j.vrank_of.assign(static_cast<size_t>(cfg.fleet_ranks), -1);
    for (size_t v = 0; v < j.group.size(); ++v) {
      j.vrank_of[static_cast<size_t>(j.group[v])] = static_cast<int>(v);
    }
    j.roots.resize(j.group.size());
    j.waiters.assign(j.group.size(), Waiter{});
    j.unsettled = static_cast<int>(j.group.size());
    for (const int member : j.group) add_item(member, j.id);
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
    switch (c.kind) {
      case StepKind::kStart: exec_start(j, top.rank); break;
      case StepKind::kRecv: exec_recv(j, top.rank); break;
      case StepKind::kAbort: exec_abort(j, top.rank); break;
    }
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
  std::vector<uint8_t> bytes = eng_->pool.acquire(values.size_bytes());
  bytes.resize(values.size_bytes());
  std::memcpy(bytes.data(), values.data(), values.size_bytes());
  eng_->port_send(job_, vrank_, dst, tag, bytes);
  eng_->pool.release(std::move(bytes));
}

RecvAwaitable Port::recv(int src, int tag) {
  return RecvAwaitable(eng_, job_, vrank_, src, tag);
}

RecvIntoAwaitable Port::recv_into(int src, int tag, std::span<uint8_t> out) {
  return RecvIntoAwaitable(recv(src, tag), out);
}

std::vector<uint8_t> Port::refetch(int /*src*/, int /*tag*/, simmpi::Comm::Refetch /*mode*/,
                                   size_t /*raw_bytes_hint*/) {
  throw Error(
      "sched::Engine models a clean transport: there is no in-flight window to refetch from");
}

void Port::charge(simmpi::CostBucket bucket, double seconds, trace::EventKind kind,
                  uint64_t bytes, uint64_t bytes_out) {
  eng_->port_charge(job_, vrank_, bucket, seconds, kind, bytes, bytes_out);
}

IntegrityStats& Port::integrity() {
  return eng_->jobs[static_cast<size_t>(job_)].integrity;
}

void RecvAwaitable::await_suspend(std::coroutine_handle<> h) {
  eng_->register_waiter(this, h);
}

std::vector<uint8_t> RecvAwaitable::await_resume() {
  if (error_) std::rethrow_exception(error_);
  return std::move(payload_);
}

void RecvIntoAwaitable::await_resume() {
  const std::vector<uint8_t> payload = RecvAwaitable::await_resume();
  if (payload.size() != out_.size()) {
    throw Error("recv_into: message size " + std::to_string(payload.size()) +
                " != buffer size " + std::to_string(out_.size()));
  }
  std::memcpy(out_.data(), payload.data(), payload.size());
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

Request Engine::iallgather(Kernel kernel, const JobConfig& config, const RankInputFn& input,
                           const SubmitOptions& options) {
  return impl_->submit(kernel, ICollOp::kAllgather, config, input, options);
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
    t.ranks.push_back(r.tracer.snapshot());
    t.dropped_events += r.tracer.dropped();
  }
  t.ranks.push_back(impl_->sched_tracer.snapshot());
  t.dropped_events += impl_->sched_tracer.dropped();
  return t;
}

std::vector<simmpi::ClockReport> Engine::clock_reports() const {
  std::vector<simmpi::ClockReport> out;
  out.reserve(impl_->ranks.size());
  for (const EngineImpl::RankState& r : impl_->ranks) out.push_back(r.clock.report());
  return out;
}

std::vector<TransportStats> Engine::transport_stats() const {
  std::vector<TransportStats> out;
  out.reserve(impl_->ranks.size());
  for (const EngineImpl::RankState& r : impl_->ranks) out.push_back(r.transport);
  return out;
}

std::vector<HealthStats> Engine::health_stats() const {
  std::vector<HealthStats> out;
  out.reserve(impl_->ranks.size());
  for (const EngineImpl::RankState& r : impl_->ranks) out.push_back(r.health);
  return out;
}

}  // namespace hzccl::sched
