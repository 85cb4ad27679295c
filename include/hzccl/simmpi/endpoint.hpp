// One rank's timeline, shared by both executors: simmpi::Runtime keeps one
// in each rank's Comm, sched::Engine one per fleet rank.  An Endpoint owns
// the rank's virtual clock and span recorder, straggler factor, pending
// crash or hang with its operation count, per-destination send seqs, the
// counter of its stall die, and transport and health counters, and makes
// every charge the rank makes: each method advances the clock, records the
// span (with a job id; the runtime passes trace::kNoJob) and bumps the
// counter.  The ControlPlane (control_plane.hpp) decides *when* a recovery
// step happens; the Endpoint how it is charged.  One writer: the rank's
// thread, or the engine's loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/simmpi/clock.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/netmodel.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/trace/trace.hpp"
#include "hzccl/util/pool.hpp"

namespace hzccl::simmpi {

/// What a receiver learns from a frame it accepts.
struct Arrival {
  int src = 0;  ///< physical sender
  int tag = 0;
  uint64_t seq = 0;
  size_t bytes = 0;         ///< payload bytes
  double send_vtime = 0.0;  ///< the sender's clock after injection
};

class Endpoint {
 public:
  /// Physical rank `rank` of `fleet_ranks` on `net`, with its slot of a
  /// schedule from FaultPlan::resolve_rank_faults.
  Endpoint(int rank, int fleet_ranks, const NetModel& net, std::span<const RankFault> faults)
      : rank_(rank), net_(&net), send_seq_(static_cast<size_t>(fleet_ranks), 0) {
    const RankFaultSlot slot = rank_fault_slot(faults, rank);
    cost_factor_ = slot.cost_factor;
    health_.straggles = slot.straggler ? 1 : 0;
    stop_fault_ = slot.stop;
  }

  int phys_rank() const { return rank_; }
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  double now() const { return clock_.now(); }
  double cost_factor() const { return cost_factor_; }  ///< straggler multiplier
  bool stopped() const { return stopped_; }  ///< its crash or hang fired
  trace::Recorder& tracer() { return tracer_; }
  TransportStats& transport() { return transport_; }
  const TransportStats& transport() const { return transport_; }
  HealthStats& health() { return health_; }
  const HealthStats& health() const { return health_; }

  /// Record into a ring of `opts.capacity` spans from `pool`, if enabled.
  void enable_trace(const trace::Options& opts, BufferPool& pool) {
    if (opts.enabled) tracer_.enable(opts.capacity, pool);
  }
  /// The retained spans into `stream`, oldest first; returns how many the
  /// ring overwrote.
  uint64_t collect_trace(std::vector<trace::Event>& stream) const {
    stream = tracer_.snapshot();
    return tracer_.dropped();
  }
  void release_trace(BufferPool& pool) { tracer_.disable(pool); }

  /// Record `e` as a span of `job` ending at `t1` (default: now).
  void span(trace::Event e, uint8_t job, double t1) {
    if (!tracer_.enabled()) return;
    e.t1 = t1;
    e.job = job;
    tracer_.record(e);
  }
  void span(const trace::Event& e, uint8_t job) { span(e, job, clock_.now()); }

  /// Spend `seconds` of straggler-scaled local work in `bucket`, traced as
  /// one `kind` span of `bytes` in and `bytes_out` produced.  A compute span
  /// carries the kernel dispatch level that ran it in aux (0 = scalar).  A
  /// zero-second charge records nothing: zero-length spans are marks.
  void charge(CostBucket bucket, double seconds, trace::EventKind kind, uint64_t bytes,
              uint64_t bytes_out, uint8_t job) {
    const double t0 = clock_.now();
    clock_.advance(seconds * cost_factor_, bucket);
    if (seconds > 0.0 && tracer_.enabled()) {
      const uint8_t level = trace::kind_is_transport(kind)
                                ? uint8_t{0}
                                : static_cast<uint8_t>(kernels::active_dispatch_level());
      span({.t0 = t0, .bytes = bytes, .bytes_out = bytes_out, .kind = kind, .aux = level}, job);
    }
  }

  /// A zero-length `kind` span at now: an integrity marker, or the
  /// algorithm marker (kPack, aux kAuxAlgoBase + algo, the input bytes).
  void mark(trace::EventKind kind, uint8_t job, uint8_t aux = 0, uint64_t bytes = 0) {
    span({.t0 = clock_.now(), .bytes = bytes, .kind = kind, .aux = aux}, job);
  }

  /// Spend `seconds` of communication time (kMpi), traced as `e` from now.
  void spend(double seconds, trace::Event e, uint8_t job) {
    e.t0 = clock_.now();
    clock_.advance(seconds, CostBucket::kMpi);
    span(e, job);
  }

  /// Count one transport operation (a send, receive, barrier or shrink).
  /// When this rank's crash or hang is due, the rank stops, and the fault is
  /// counted and returned; otherwise nullptr.
  const RankFault* count_op() {
    ++ops_;
    if (stop_fault_ == nullptr || !stop_fault_->due(ops_, clock_.now())) return nullptr;
    stopped_ = true;
    ++(stop_fault_->kind == RankFaultKind::kHang ? health_.hangs : health_.crashes);
    return stop_fault_;
  }

  /// The counter of this rank's next stall-die roll (one per transport
  /// operation while the plan stalls; Link::stall).
  uint64_t next_stall_roll() { return stall_rolls_++; }

  /// Inject `bytes` of payload for physical rank `dst`: the eager sender
  /// pays the link's injection latency.  Returns the frame's seq on the
  /// link; the frame leaves at now().
  uint64_t inject(int dst, int tag, size_t bytes, uint8_t job) {
    const double t0 = clock_.now();
    clock_.advance(net_->link_latency_s(rank_, dst) * cost_factor_, CostBucket::kMpi);
    const uint64_t seq = send_seq_[static_cast<size_t>(dst)]++;
    ++transport_.frames_sent;
    span({.t0 = t0, .seq = seq, .bytes = bytes, .peer = dst, .tag = tag,
          .kind = trace::EventKind::kSend}, job);
    return seq;
  }

  /// When a frame of `frame_bytes` from `src`, sent at `send_vtime`, is in:
  /// no earlier than the send, plus its wire time in an `nranks`-rank job
  /// (NetModel::link_seconds, at no more than `rate_cap` bytes/second).
  double ready_at(int src, size_t frame_bytes, double send_vtime, int nranks,
                  double rate_cap = std::numeric_limits<double>::infinity()) const {
    return std::max(clock_.now(), send_vtime) +
           net_->link_seconds(frame_bytes, src, rank_, nranks, rate_cap) * cost_factor_;
  }

  /// Accept frame `a`, in at `ready`: one advance, traced as the wait for
  /// the sender (idle; when it sent after now) and the wire transfer.
  void accept(const Arrival& a, double ready, uint8_t job) {
    const double t0 = clock_.now();
    const double data_ready = std::max(t0, a.send_vtime);
    clock_.advance_to(ready, CostBucket::kMpi);
    if (data_ready > t0) {
      span({.t0 = t0, .seq = a.seq, .peer = a.src, .tag = a.tag, .kind = trace::EventKind::kWait},
           job, data_ready);
    }
    span({.t0 = data_ready, .seq = a.seq, .bytes = a.bytes, .peer = a.src, .tag = a.tag,
          .kind = trace::EventKind::kRecv}, job);
    ++transport_.frames_accepted;
  }

  /// Idle until `t`: a wait span when the clock moves.
  void wait_until(double t, uint8_t job) {
    const double t0 = clock_.now();
    clock_.advance_to(t, CostBucket::kMpi);
    if (clock_.now() > t0) span({.t0 = t0, .kind = trace::EventKind::kWait}, job);
  }

  /// Give up on silent `peer` (-1: a barrier member): Suspect at
  /// `suspect_at`, Dead at `dead_at`, the control plane's deadlines.
  void detect(int peer, double suspect_at, double dead_at, uint8_t job) {
    ++health_.suspects;
    spend(suspect_at - clock_.now(), {.peer = peer, .kind = trace::EventKind::kSuspect}, job);
    ++health_.dead_declared;
    spend(dead_at - clock_.now(), {.peer = peer, .kind = trace::EventKind::kDetect}, job);
  }

  /// Leave an agreement at `release` under `epoch`, `failed` ranks lost.
  void agree(double release, uint32_t epoch, size_t failed, uint8_t job) {
    ++health_.agreements;
    if (failed > 0) ++health_.failed_agreements;
    spend(release - clock_.now(), {.seq = epoch, .bytes = failed, .kind = trace::EventKind::kAgree},
          job);
  }

  /// Back off `seconds` before the retry after `failures` failed attempts.
  void backoff(double seconds, int failures, uint8_t job) {
    ++health_.retries;
    spend(seconds, {.seq = static_cast<uint64_t>(failures), .kind = trace::EventKind::kBackoff},
          job);
  }

  /// Leave a shrink at `release` into `epoch`, having dropped `stale`
  /// undelivered frames of the failed attempt.
  void shrink(double release, uint32_t epoch, uint64_t stale, uint8_t job) {
    health_.stale_discards += stale;
    ++health_.shrinks;
    spend(release - clock_.now(), {.seq = epoch, .kind = trace::EventKind::kShrink}, job);
  }

 private:
  int rank_;
  const NetModel* net_;
  double cost_factor_ = 1.0;
  const RankFault* stop_fault_ = nullptr;
  uint64_t ops_ = 0;
  bool stopped_ = false;
  std::vector<uint64_t> send_seq_;  ///< next seq per physical destination
  uint64_t stall_rolls_ = 0;
  VirtualClock clock_;
  trace::Recorder tracer_;
  TransportStats transport_;
  HealthStats health_;
};

}  // namespace hzccl::simmpi
