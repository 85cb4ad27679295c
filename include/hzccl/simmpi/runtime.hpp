// simmpi: the message-passing runtime substrate.
//
// One std::thread per rank executes the user's rank function over a Comm
// handle.  Point-to-point messages move *real bytes* through per-rank
// mailboxes (so collectives are functionally exact and their compressed-size
// progressions are measured, not modeled), while elapsed time advances each
// rank's VirtualClock through the NetModel — see clock.hpp for why.  Each
// rank's clock, spans and counters live in its Comm's Endpoint
// (endpoint.hpp), and the wire itself (framing, link faults, the in-flight
// window and its recovery) is the link layer (link.hpp): sched::Engine keeps
// its ranks in the same Endpoint and drives the same link layer.  This file
// owns only the threads, the mailbox locks and the blocking waits.
//
// Timing semantics:
//  * send(dst, ...)  — the message is stamped with the sender's virtual send
//    time; the sender itself pays only the injection latency α (eager send).
//  * recv(src, ...)  — completes at max(local now, sender stamp) + α + n/β:
//    the receiver cannot finish before the sender produced the data, nor
//    before the wire moved it.  Waiting lands in the kMpi bucket.
//  * barrier()       — the current group's P members leave at
//    max(arrival times) + α·ceil(log2 P).
//
// Transport hardening (see faults.hpp and link.hpp): every payload travels
// framed with a length + CRC-32C header, and a seeded FaultPlan can drop,
// duplicate, reorder, corrupt or stall traffic per link.  Each rank's
// mailbox holds its link-layer Inbox: the frames delivered to it and the
// in-flight window of pristine payloads sent to it, from which a receiver
// heals a missing or corrupt frame with a virtual-clock timeout +
// NACK/retransmit exchange charged to its clock.  A receive blocks until the
// link layer can complete it.
//
// Determinism: every fault decision is a counter-based hash of the link and
// sequence number, and every recovery decision depends only on a frame's
// *final* wire outcome (link.hpp), never on how the host schedules the rank
// threads, so virtual times and counters replay exactly from a seed.
//
// Rank failures (see faults.hpp): a FaultPlan can additionally schedule
// crash/hang/straggler faults per rank.  The runtime then drives the shared
// control plane (control_plane.hpp, which sched::Engine drives too): a
// receiver blocked on a dead, agreement-parked or finished peer runs the
// Alive → Suspect → Dead health machine, every survivor throws the same
// RankFailedError out of the agreement, and Comm::shrink() + retry completes
// the collective over the survivors under a new epoch.  Decisions rest on
// final facts only, so failed runs replay exactly from their seed too.
//
// Because rank threads block on condition variables while waiting for
// matching messages, hundreds of mostly-idle ranks simulate fine on a small
// host; the paper's 512-node runs map to 512 threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "hzccl/simmpi/clock.hpp"
#include "hzccl/simmpi/control_plane.hpp"
#include "hzccl/simmpi/endpoint.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/link.hpp"
#include "hzccl/simmpi/netmodel.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/trace/trace.hpp"

namespace hzccl::simmpi {

class Runtime;

/// Per-rank communicator handle, valid only inside Runtime::run.
///
/// Rank addressing: `rank()`/`size()` and every src/dst argument are
/// *virtual* ranks within the current group.  Until a shrink() the group is
/// the identity over all ranks; after a shrink the survivors are renumbered
/// densely (sorted by physical rank) under a new epoch.  `phys_rank()` is
/// the immutable physical identity (thread index, fault-schedule key).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  int phys_rank() const { return endpoint_.phys_rank(); }
  /// Current group epoch; bumped by every shrink().  Frames from older
  /// epochs are discarded on receive.
  uint32_t epoch() const { return epoch_view_; }
  /// Physical ranks of the current group, indexed by virtual rank.
  const std::vector<int>& group() const { return group_; }
  VirtualClock& clock() { return endpoint_.clock(); }
  Endpoint& endpoint() { return endpoint_; }
  const NetModel& net() const;
  const FaultPlan& faults() const;

  /// Eager, buffered send (never blocks on the receiver).
  void send(int dst, int tag, std::span<const uint8_t> payload);

  /// Blocking receive of the next message matching (src, tag).  Under a
  /// FaultPlan this transparently heals dropped, corrupt and duplicate
  /// frames (virtual-clock timeout + NACK + retransmit, all charged to the
  /// clock); reordered frames are simply consumed late.
  std::vector<uint8_t> recv(int src, int tag);

  /// Receive into an existing buffer; the message size must match exactly.
  /// The frame's payload is CRC-checked and copied into `out` in one pass.
  void recv_into(int src, int tag, std::span<uint8_t> out);

  /// What a refetch of the last consumed message should return.
  using Refetch = simmpi::Refetch;

  /// NACK the most recently consumed (src, tag) message and fetch it again
  /// from the sender's in-flight window.  Requires an enabled FaultPlan;
  /// the recovery round-trip is charged to the virtual clock.
  std::vector<uint8_t> refetch(int src, int tag, Refetch mode, size_t raw_bytes_hint = 0);

  /// Synchronize the current group's ranks (both thread-level and
  /// virtual-clock-level).  A member that can never arrive (dead, parked in
  /// an agreement, or finished) makes the wait hopeless: the waiters declare
  /// the failure and unwind to the agreement of their guarded() attempt.
  void barrier();

  /// Run one collective attempt under the rank-failure contract: with rank
  /// faults scheduled, `body` is followed by an agreement round so either
  /// every survivor returns normally or every survivor throws the *same*
  /// RankFailedError{failed_ranks, epoch} — no hangs, no split-brain.
  /// Without rank faults this is exactly `body()` (zero overhead).
  void guarded(const std::function<void()>& body);

  /// Rebuild the group over the survivors of the last failed agreement
  /// under a new epoch; stale-epoch frames are discarded.  Call between a
  /// caught RankFailedError and the retry of the collective.
  void shrink();

  /// Charge the retry-policy backoff before re-running a failed collective
  /// (`failures` = number of failed attempts so far, 1-based).
  void retry_backoff(const RetryPolicy& policy, int failures);

  /// Spend `seconds` of local work in `bucket` AND record a typed compute
  /// span for it: the one call the collectives use for every compute charge,
  /// so the trace accounts for the whole virtual timeline.  `bytes` is the
  /// uncompressed volume the step touched, `bytes_out` the compressed bytes
  /// it produced (0 when not applicable) — together they give per-event
  /// compression ratios.
  void charge(CostBucket bucket, double seconds, trace::EventKind kind, uint64_t bytes = 0,
              uint64_t bytes_out = 0);

  /// This rank's event recorder (disabled unless the Runtime was built with
  /// trace::Options::enabled).
  trace::Recorder& tracer() { return endpoint_.tracer(); }

  // Typed conveniences for float payloads.
  void send_floats(int dst, int tag, std::span<const float> data);
  void recv_floats_into(int src, int tag, std::span<float> out);

  /// Traffic accounting (payload bytes through this rank's send/recv).
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

  /// Transport health counters accumulated by this rank so far.
  const hzccl::TransportStats& transport() const { return endpoint_.transport(); }

  /// Endpoint-health counters accumulated by this rank so far.
  const hzccl::HealthStats& health() const { return endpoint_.health(); }

  /// Digest verify-and-recover counters accumulated by this rank so far.
  /// Collective bodies bump these through the mutable accessor; the runtime
  /// folds the rank's poisoned-combine injections in when the rank returns.
  const hzccl::IntegrityStats& integrity() const { return integrity_; }
  hzccl::IntegrityStats& integrity() { return integrity_; }

 private:
  friend class Runtime;
  Comm(Runtime* rt, int rank, int size);

  /// The transport half of recv/recv_into: rank-fault check, held-frame
  /// flush, stall, then the runtime's blocking take (into `into`, for
  /// recv_into).
  Delivery receive(int src, int tag, std::span<uint8_t> into = {});

  /// Translate a virtual rank of the current group to its physical rank.
  int to_phys(int vrank) const { return group_[static_cast<size_t>(vrank)]; }

  Runtime* runtime_;
  Endpoint endpoint_;  ///< physical identity and timeline
  int rank_;           ///< virtual rank within group_
  int size_;           ///< group_.size()
  std::vector<int> group_;   ///< virtual rank -> physical rank
  uint32_t epoch_view_ = 0;  ///< this rank's installed group epoch
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  hzccl::IntegrityStats integrity_;
  /// This rank's link state: its reorder-held frames (released behind its
  /// next frame to that destination, or at its next recv/barrier/return:
  /// the NIC drains while the CPU waits) and accepted seqs.
  LinkState link_state_;
};

/// Owns the rank threads and mailboxes for one collective job.
class Runtime {
 public:
  Runtime(int nranks, NetModel net, FaultPlan faults = FaultPlan::none(),
          trace::Options trace_opts = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  using RankFn = std::function<void(Comm&)>;

  /// Execute `fn` on every rank; returns the per-rank clock reports.
  /// After all threads have been joined, the lowest-ranked rank's error is
  /// rethrown, skipping ranks that failed only because another rank's error
  /// aborted the run — so the root cause surfaces.
  std::vector<ClockReport> run(const RankFn& fn);

  const NetModel& net() const { return net_; }
  const FaultPlan& faults() const { return faults_; }
  int size() const { return nranks_; }

  /// Per-rank transport counters of the most recent run.
  const std::vector<hzccl::TransportStats>& transport_stats() const { return transport_stats_; }

  /// Per-rank endpoint-health counters of the most recent run.
  const std::vector<hzccl::HealthStats>& health_stats() const { return health_stats_; }

  /// Per-rank integrity counters of the most recent run.
  const std::vector<hzccl::IntegrityStats>& integrity_stats() const { return integrity_stats_; }

  /// Per-rank event trace of the most recent run (empty unless the Runtime
  /// was constructed with trace::Options::enabled).
  const trace::Trace& trace() const { return trace_; }

  /// Completion time of the collective = slowest rank.
  static ClockReport slowest(const std::vector<ClockReport>& reports);

 private:
  friend class Comm;

  /// A rank's mailbox: its link-layer inbox under the lock its receives
  /// wait on.
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    Inbox inbox;
  };

  /// Put `t`, which `sender` framed for physical rank `dst`, on the wire.
  void transmit(Comm& sender, int dst, Transmission t);

  /// Settle every frame `sender` is holding back (reorder fault).
  void flush_limbo(Comm& sender, WireOutcome outcome = WireOutcome::kDelivered);

  /// One blocking receive: wait until the link layer can complete it, or
  /// until `src` turns silent (the health machine takes over); returns the
  /// accepted bytes as they are (see Delivery), without copying the
  /// payload out unless it landed in `into` (Link::take).
  Delivery take(Comm& receiver, int src, int tag, std::span<uint8_t> into);

  std::vector<uint8_t> refetch(Comm& receiver, int src, int tag, Refetch mode,
                               size_t raw_bytes_hint);

  // -------------------------------------------------------------------------
  // Control plane: the barrier, and under rank faults the health machine,
  // the agreement and the shrink, decided by `control_` (control_plane.hpp)
  // under control_mutex_; the runtime owns the waits.  Lock ordering:
  // control_mutex_ is a leaf, never held while acquiring a mailbox mutex.
  // -------------------------------------------------------------------------

  /// The one control-plane wait (control_mutex_ held through `lock`): block
  /// until round `kind` completes past `generation`.  A waiter leaves the
  /// round unreleased, returning false, as soon as `hopeless()` holds; it
  /// throws the abort error naming `where` when the run aborts first.
  template <class Hopeless>
  bool await_round(std::unique_lock<std::mutex>& lock, ControlPlane::RoundKind kind,
                   uint64_t generation, const char* where, Hopeless hopeless);

  bool rank_faults_on() const { return faults_.rank_faults_enabled(); }

  /// Fire this rank's scheduled crash/hang if a trigger is reached; called
  /// at every transport-operation entry (send/recv/barrier/shrink).
  void check_rank_fault(Comm& comm);

  /// Stop `comm`'s rank: settle its wire state (hang drains the NIC, crash
  /// abandons held frames to timeout/NACK recovery), record the death and
  /// unwind the thread via an internal signal (not an error).
  [[noreturn]] void kill_rank(Comm& comm, bool hang);

  /// Record that `comm`'s rank stops for good — dead, or finished when its
  /// rank function returned — complete any round that verdict settles, and
  /// wake every waiter.
  void retire(Comm& comm, bool dead);

  /// Charge the Alive → Suspect → Dead deadlines against `peer` (whose
  /// final stop time is `stop_vtime`; < 0 when unknown, e.g. a barrier
  /// abandoned for a failure elsewhere) and unwind to the agreement round.
  [[noreturn]] void declare_peer_failed(Comm& receiver, int peer, double stop_vtime);

  /// Park in the agreement round; returns on unanimous success, throws
  /// RankFailedError when the agreed failed-rank set is non-empty.
  void agreement(Comm& comm);

  /// Survivor-side group rebuild (Comm::shrink body).
  void shrink_group(Comm& comm);

  /// Group-aware barrier over the current members.
  void barrier_wait(Comm& comm);

  void wake_all_mailboxes();

  int nranks_;
  NetModel net_;
  FaultPlan faults_;
  Link link_;
  trace::Options trace_opts_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<hzccl::TransportStats> transport_stats_;
  std::vector<hzccl::HealthStats> health_stats_;
  std::vector<hzccl::IntegrityStats> integrity_stats_;
  trace::Trace trace_;
  /// Set when any rank throws, so peers blocked on that rank's messages or
  /// in a control-plane round fail fast instead of deadlocking the join.
  std::atomic<bool> aborted_{false};

  // Control-plane state, rebuilt by every run; guarded by control_mutex_.
  std::mutex control_mutex_;
  std::condition_variable control_cv_;
  std::vector<RankFault> resolved_faults_;
  ControlPlane control_;
};

}  // namespace hzccl::simmpi
