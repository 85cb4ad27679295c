#include "hzccl/simmpi/runtime.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "hzccl/integrity/sdc.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::simmpi {

using RoundKind = ControlPlane::RoundKind;

std::string bucket_name(CostBucket b) {
  switch (b) {
    case CostBucket::kMpi: return "MPI";
    case CostBucket::kCpr: return "CPR";
    case CostBucket::kDpr: return "DPR";
    case CostBucket::kCpt: return "CPT";
    case CostBucket::kHpr: return "HPR";
    case CostBucket::kOther: return "OTHER";
  }
  return "?";
}

double ClockReport::doc_related() const {
  return (*this)[CostBucket::kCpr] + (*this)[CostBucket::kDpr] + (*this)[CostBucket::kCpt] +
         (*this)[CostBucket::kHpr];
}

double ClockReport::percent(CostBucket b) const {
  return total_seconds > 0.0 ? 100.0 * (*this)[b] / total_seconds : 0.0;
}

ClockReport ClockReport::max_of(const ClockReport& a, const ClockReport& b) {
  // The slower rank defines the collective's completion time and breakdown.
  return a.total_seconds >= b.total_seconds ? a : b;
}

namespace {

/// Internal unwind signals of the rank-failure control plane.  Deliberately
/// NOT derived from hzccl::Error: collective bodies catch Error for the
/// degraded-block healing paths, and these must pass through untouched.
struct RankStopSignal {};     ///< this rank's scheduled crash/hang fired
struct RankRevokedSignal {};  ///< a hopeless wait revoked the current attempt

/// What a rank throws when another rank's error aborted the run while it
/// waited: a bystander's report, which Runtime::run ranks below the error
/// that caused the abort.
class PeerAbortError : public hzccl::Error {
 public:
  explicit PeerAbortError(const char* where)
      : Error(std::string("simmpi: a peer rank failed while this rank was ") + where) {}
};

}  // namespace

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

Comm::Comm(Runtime* rt, int rank, int size)
    : runtime_(rt),
      endpoint_(rank, size, rt->net_, rt->resolved_faults_),
      rank_(rank),
      size_(size),
      group_(static_cast<size_t>(size)) {
  for (int i = 0; i < size; ++i) group_[static_cast<size_t>(i)] = i;
}

const NetModel& Comm::net() const { return runtime_->net(); }
const FaultPlan& Comm::faults() const { return runtime_->faults(); }

void Comm::send(int dst, int tag, std::span<const uint8_t> payload) {
  if (dst < 0 || dst >= size_) throw hzccl::Error("send: bad destination rank");
  runtime_->check_rank_fault(*this);
  const Link& link = runtime_->link_;
  link.stall(endpoint_, FaultKind::kStallSend, trace::kNoJob);
  // Eager protocol: the sender only pays injection latency; the transfer
  // itself is accounted at the receiver against the send timestamp.
  const int pdst = to_phys(dst);
  const uint64_t seq = endpoint_.inject(pdst, tag, payload.size(), trace::kNoJob);
  bytes_sent_ += payload.size();
  runtime_->transmit(*this, pdst,
                     link.frame(endpoint_, link_state_, pdst, tag, seq, epoch_view_, payload));
}

Delivery Comm::receive(int src, int tag, std::span<uint8_t> into) {
  if (src < 0 || src >= size_) throw hzccl::Error("recv: bad source rank");
  runtime_->check_rank_fault(*this);
  // The NIC drains any reorder-held frames while this rank is about to wait;
  // this keeps the release points deterministic and the transport
  // deadlock-free (a blocked rank never sits on undelivered traffic).
  runtime_->flush_limbo(*this);
  runtime_->link_.stall(endpoint_, FaultKind::kStallRecv, trace::kNoJob);
  Delivery delivery = runtime_->take(*this, to_phys(src), tag, into);
  bytes_received_ += delivery.payload().size();
  return delivery;
}

std::vector<uint8_t> Comm::recv(int src, int tag) { return receive(src, tag).take_payload(); }

void Comm::recv_into(int src, int tag, std::span<uint8_t> out) {
  receive(src, tag, out).copy_to(out);
}

std::vector<uint8_t> Comm::refetch(int src, int tag, Refetch mode, size_t raw_bytes_hint) {
  if (src < 0 || src >= size_) throw hzccl::Error("refetch: bad source rank");
  return runtime_->refetch(*this, to_phys(src), tag, mode, raw_bytes_hint);
}

void Comm::barrier() {
  runtime_->check_rank_fault(*this);
  runtime_->flush_limbo(*this);
  runtime_->barrier_wait(*this);
}

void Comm::guarded(const std::function<void()>& body) {
  if (!runtime_->rank_faults_on()) {
    body();
    return;
  }
  try {
    body();
  } catch (const RankRevokedSignal&) {
    // A hopeless wait revoked this attempt; the agreement below settles
    // which ranks actually failed.
  }
  runtime_->flush_limbo(*this);
  runtime_->agreement(*this);
}

void Comm::shrink() { runtime_->shrink_group(*this); }

void Comm::retry_backoff(const RetryPolicy& policy, int failures) {
  // The fault-plan seed feeds the jitter draw so a faulted run replays —
  // backoff included — from one number.
  endpoint_.backoff(runtime_->control_.backoff(policy, failures), failures, trace::kNoJob);
}

void Comm::charge(CostBucket bucket, double seconds, trace::EventKind kind, uint64_t bytes,
                  uint64_t bytes_out) {
  endpoint_.charge(bucket, seconds, kind, bytes, bytes_out, trace::kNoJob);
}

void Comm::send_floats(int dst, int tag, std::span<const float> data) {
  send(dst, tag, bytes_of(data));
}

void Comm::recv_floats_into(int src, int tag, std::span<float> out) {
  recv_into(src, tag, writable_bytes_of(out));
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(int nranks, NetModel net, FaultPlan faults, trace::Options trace_opts)
    : nranks_(nranks),
      net_(net),
      faults_(std::move(faults)),
      link_(faults_, net_, nranks),
      trace_opts_(trace_opts) {
  if (nranks <= 0) throw hzccl::Error("Runtime: rank count must be positive");
  faults_.validate();
  mailboxes_.reserve(static_cast<size_t>(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  if (rank_faults_on()) resolved_faults_ = faults_.resolve_rank_faults(nranks);
}

Runtime::~Runtime() = default;

template <class Hopeless>
bool Runtime::await_round(std::unique_lock<std::mutex>& lock, RoundKind kind, uint64_t generation,
                          const char* where, Hopeless hopeless) {
  for (;;) {
    if (control_.round(kind).generation != generation) return true;
    if (hopeless()) {
      control_.leave(kind);
      return false;
    }
    if (aborted_.load(std::memory_order_acquire)) {
      control_.leave(kind);
      throw PeerAbortError(where);
    }
    control_cv_.wait(lock);
  }
}

void Runtime::check_rank_fault(Comm& comm) {
  if (const RankFault* f = comm.endpoint_.count_op()) {
    kill_rank(comm, f->kind == RankFaultKind::kHang);
  }
}

void Runtime::wake_all_mailboxes() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
}

void Runtime::kill_rank(Comm& comm, bool hang) {
  // A hung rank stays attached: its NIC drains the reorder-held frames
  // before the death becomes visible, so peers consume them normally.  A
  // crashed NIC dies with them still parked: their window entries flip to
  // "dropped", so receivers recover them with the standard timeout/NACK
  // machinery instead of blocking forever — the fabric, not the dead
  // process, retains the pristine copy.
  flush_limbo(comm, hang ? WireOutcome::kDelivered : WireOutcome::kDropped);
  retire(comm, /*dead=*/true);
  throw RankStopSignal{};
}

void Runtime::retire(Comm& comm, bool dead) {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    control_.retire(comm.phys_rank(), dead, comm.endpoint_.now());
  }
  control_cv_.notify_all();
  wake_all_mailboxes();
}

void Runtime::declare_peer_failed(Comm& receiver, int peer, double stop_vtime) {
  const double t0 = receiver.endpoint_.now();
  receiver.endpoint_.detect(peer, control_.suspect_at(t0, stop_vtime),
                            control_.dead_at(t0, stop_vtime), trace::kNoJob);
  throw RankRevokedSignal{};
}

void Runtime::agreement(Comm& comm) {
  std::unique_lock<std::mutex> lock(control_mutex_);
  const uint64_t generation = control_.arrive_agreement(comm.phys_rank(), comm.endpoint_.now());
  lock.unlock();
  control_cv_.notify_all();
  // Peers blocked in take() re-evaluate hopelessness against this arrival.
  wake_all_mailboxes();

  lock.lock();
  await_round(lock, RoundKind::kAgreement, generation, "in an agreement", [] { return false; });
  std::vector<int> failed = control_.agreed_failed();
  const double release = control_.round(RoundKind::kAgreement).release;
  const uint32_t epoch = control_.epoch();
  lock.unlock();

  comm.endpoint_.agree(release, epoch, failed.size(), trace::kNoJob);
  if (!failed.empty()) throw RankFailedError(std::move(failed), epoch);
}

void Runtime::shrink_group(Comm& comm) {
  if (!rank_faults_on()) {
    throw hzccl::Error("shrink: only meaningful with scheduled rank faults");
  }
  check_rank_fault(comm);
  flush_limbo(comm);
  const int me = comm.phys_rank();
  std::unique_lock<std::mutex> lock(control_mutex_);
  const uint64_t generation = control_.arrive_shrink(me, comm.endpoint_.now());
  lock.unlock();
  control_cv_.notify_all();

  lock.lock();
  await_round(lock, RoundKind::kShrink, generation, "in a shrink", [] { return false; });
  const double release = control_.round(RoundKind::kShrink).release;
  const uint32_t new_epoch = control_.epoch();
  comm.group_ = control_.members();
  lock.unlock();

  comm.epoch_view_ = new_epoch;
  comm.size_ = static_cast<int>(comm.group_.size());
  comm.rank_ = static_cast<int>(
      std::find(comm.group_.begin(), comm.group_.end(), me) - comm.group_.begin());
  if (comm.rank_ >= comm.size_) {
    throw hzccl::Error("shrink: this rank is not part of the surviving group");
  }
  // Purge this rank's mailbox of old-epoch traffic from the failed attempt.
  size_t stale = 0;
  {
    Mailbox& box = *mailboxes_[static_cast<size_t>(me)];
    std::lock_guard<std::mutex> box_lock(box.mutex);
    stale = box.inbox.purge(new_epoch);
  }
  comm.endpoint_.shrink(release, new_epoch, stale, trace::kNoJob);
}

void Runtime::barrier_wait(Comm& comm) {
  const double t0 = comm.endpoint_.now();
  const int me = comm.phys_rank();
  std::unique_lock<std::mutex> lock(control_mutex_);
  const uint64_t generation = control_.arrive_barrier(t0);
  // A dead, parked or finished member can never arrive: the barrier is
  // hopeless.  The failure charge uses only this rank's own arrival time
  // (never the racy set of currently-visible causes), so it replays exactly;
  // peer=-1 marks "a member", not a specific culprit.
  if (control_.round(RoundKind::kBarrier).generation != generation) {
    control_cv_.notify_all();
  } else if (!await_round(lock, RoundKind::kBarrier, generation, "in a barrier",
                          [&] { return control_.barrier_hopeless(me); })) {
    lock.unlock();
    declare_peer_failed(comm, -1, -1.0);
  }
  const double release = control_.round(RoundKind::kBarrier).release;
  lock.unlock();
  comm.endpoint_.wait_until(release, trace::kNoJob);
}

void Runtime::transmit(Comm& sender, int dst, Transmission t) {
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    link_.send(box.inbox, sender.link_state_, dst, std::move(t));
  }
  // A dropped frame wakes the receiver too: it observes the window entry
  // and starts its timeout/NACK recovery.
  box.cv.notify_all();
}

void Runtime::flush_limbo(Comm& sender, WireOutcome outcome) {
  while (!sender.link_state_.held.empty()) {
    const int dst = sender.link_state_.held.begin()->first;
    Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      Link::release(box.inbox, sender.link_state_, dst, outcome);
    }
    box.cv.notify_all();
  }
}

Delivery Runtime::take(Comm& receiver, int src, int tag, std::span<uint8_t> into) {
  Endpoint& ep = receiver.endpoint_;
  LinkState& mine = receiver.link_state_;
  const uint32_t epoch = receiver.epoch_view_;
  Mailbox& box = *mailboxes_[static_cast<size_t>(receiver.phys_rank())];
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;) {
    link_.discard(box.inbox, ep, mine, src, epoch, trace::kNoJob);
    std::optional<Delivery> delivery =
        link_.take(box.inbox, ep, mine, src, tag, epoch, trace::kNoJob, into);
    if (delivery) return std::move(*delivery);

    // Nothing on the wire and nothing recoverable: with rank faults armed,
    // check whether `src` can still produce the frame at all.  A dead,
    // agreement-parked or finished peer never sends again — and everything
    // it *did* send was already visible above — so the wait is hopeless and
    // the health machine takes over.  Frame availability is always checked
    // first, which keeps this decision identical under any host scheduling.
    if (rank_faults_on()) {
      std::unique_lock<std::mutex> control(control_mutex_);
      const ControlPlane::RankState st = control_.state(src);
      control.unlock();
      if (st.silent()) {
        lock.unlock();
        declare_peer_failed(receiver, src, st.stop_vtime);
      }
    }

    if (aborted_.load(std::memory_order_acquire)) throw PeerAbortError("receiving");
    box.cv.wait(lock);
  }
}

std::vector<uint8_t> Runtime::refetch(Comm& receiver, int src, int tag, Refetch mode,
                                      size_t raw_bytes_hint) {
  Mailbox& box = *mailboxes_[static_cast<size_t>(receiver.phys_rank())];
  std::lock_guard<std::mutex> lock(box.mutex);
  return link_.refetch(box.inbox, receiver.endpoint_, src, tag, receiver.epoch_view_, mode,
                       raw_bytes_hint, trace::kNoJob);
}

std::vector<ClockReport> Runtime::run(const RankFn& fn) {
  control_ = ControlPlane(nranks_, net_.latency_s, faults_);
  std::vector<ClockReport> reports(static_cast<size_t>(nranks_));
  std::vector<hzccl::TransportStats> transport(static_cast<size_t>(nranks_));
  std::vector<hzccl::HealthStats> health(static_cast<size_t>(nranks_));
  std::vector<hzccl::IntegrityStats> integrity(static_cast<size_t>(nranks_));
  std::vector<std::vector<trace::Event>> streams(static_cast<size_t>(nranks_));
  std::vector<uint64_t> dropped(static_cast<size_t>(nranks_), 0);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(nranks_));
  std::vector<std::exception_ptr> bystander_errors(static_cast<size_t>(nranks_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(nranks_));

  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(this, r, nranks_);
      // Ring storage comes from this rank's thread-local pool: the one
      // allocation tracing ever makes, recycled across runs.
      comm.endpoint_.enable_trace(trace_opts_, BufferPool::local());
      // Compute-side SDC: arm this rank thread's poisoned-combine injector
      // for the duration of the rank body.  The homomorphic combine loop
      // consults it through a thread-local pointer, so an unarmed run pays
      // nothing.
      integrity::SdcInjector injector;
      injector.seed = faults_.seed;
      injector.poison = faults_.poison;
      injector.rank = r;
      const integrity::ScopedSdcInjector scoped_injector(
          faults_.poison > 0.0 ? &injector : nullptr);
      try {
        fn(comm);
        // A returning rank drains its NIC: any reorder-held frame is
        // delivered now so no peer blocks on it forever.
        flush_limbo(comm);
        // ... and tells the control plane it agrees with anything from now
        // on, so agreement rounds never wait on a rank that already left.
        if (rank_faults_on()) retire(comm, /*dead=*/false);
      } catch (const RankStopSignal&) {
        // An injected crash/hang, not an error: the control plane already
        // recorded the death and peers recover through detection/agreement.
      } catch (const PeerAbortError&) {
        // A bystander of an abort that already woke every waiter.
        bystander_errors[static_cast<size_t>(r)] = std::current_exception();
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
        // Unblock peers waiting on this rank's messages or in a
        // control-plane round; they observe aborted_ and fail fast instead
        // of deadlocking.
        aborted_.store(true, std::memory_order_release);
        wake_all_mailboxes();
        {
          std::lock_guard<std::mutex> lock(control_mutex_);
          control_cv_.notify_all();
        }
      }
      reports[static_cast<size_t>(r)] = comm.clock().report();
      transport[static_cast<size_t>(r)] = comm.transport();
      health[static_cast<size_t>(r)] = comm.health();
      comm.integrity_.poisoned_combines += injector.injected;
      integrity[static_cast<size_t>(r)] = comm.integrity();
      if (trace_opts_.enabled) {
        dropped[static_cast<size_t>(r)] =
            comm.endpoint_.collect_trace(streams[static_cast<size_t>(r)]);
      }
      comm.endpoint_.release_trace(BufferPool::local());
    });
  }
  for (auto& t : threads) t.join();

  // Drain stale state so the Runtime can be reused for another run.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->inbox.messages.clear();
    box->inbox.window.clear();
  }
  aborted_.store(false, std::memory_order_release);
  transport_stats_ = std::move(transport);
  health_stats_ = std::move(health);
  integrity_stats_ = std::move(integrity);
  trace_ = trace::Trace{};
  if (trace_opts_.enabled) {
    trace_.ranks = std::move(streams);
    for (const uint64_t d : dropped) trace_.dropped_events += d;
  }

  // The lowest-ranked root cause outranks every bystander's report of the
  // abort it caused.
  for (const auto* ranked : {&errors, &bystander_errors}) {
    for (const std::exception_ptr& e : *ranked) {
      if (e) std::rethrow_exception(e);
    }
  }
  return reports;
}

ClockReport Runtime::slowest(const std::vector<ClockReport>& reports) {
  ClockReport worst;
  for (const auto& r : reports) worst = ClockReport::max_of(worst, r);
  return worst;
}

}  // namespace hzccl::simmpi
