#include "hzccl/simmpi/runtime.hpp"

#include <algorithm>
#include <cstring>
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

/// Sender-side corruption (the mangle fault): scribble over the payload's
/// leading magic so downstream decoding fails *detectably*, plus over four
/// bytes at a seeded offset spanning the *whole* payload — without the
/// second scribble every mangle lands on the stream head and the tail
/// blocks' parse/heal paths are never exercised.  The wire CRC is computed
/// over the mangled bytes, so framing cannot catch this — only the
/// consumer's decode can, which is what the graceful-degradation path needs.
void mangle_payload(std::span<uint8_t> payload, uint64_t seed, int src, int dst,
                    uint64_t counter) {
  static constexpr uint8_t kScribble[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  for (size_t i = 0; i < payload.size() && i < sizeof(kScribble); ++i) {
    payload[i] = kScribble[i];
  }
  if (payload.size() <= sizeof(kScribble)) return;
  const uint64_t stream = (static_cast<uint64_t>(FaultKind::kMangleOffset) << 48) |
                          (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 24) |
                          static_cast<uint64_t>(static_cast<uint32_t>(dst));
  const size_t offset = sizeof(kScribble) +
                        fault_mix(seed, stream, counter) % (payload.size() - sizeof(kScribble));
  for (size_t i = 0; i < sizeof(kScribble) && offset + i < payload.size(); ++i) {
    payload[offset + i] = kScribble[i];
  }
}

/// Silent data corruption: flip one seeded payload bit *before* framing, so
/// the CRC covers the flipped byte and every wire-level check passes.  The
/// stream usually still parses; only an ABFT digest verify can catch it.
void flip_sdc_bit(std::span<uint8_t> payload, uint64_t seed, int src, int dst,
                  uint64_t counter) {
  if (payload.empty()) return;
  const uint64_t stream = (static_cast<uint64_t>(FaultKind::kSdcBit) << 48) |
                          (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 24) |
                          static_cast<uint64_t>(static_cast<uint32_t>(dst));
  const uint64_t bit = fault_mix(seed, stream, counter) % (payload.size() * 8);
  payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

/// Counter for per-attempt mangle re-rolls: 64 attempts per sequence number
/// is far beyond any retry depth the recovery paths use.
uint64_t attempt_counter(uint64_t seq, uint64_t attempt) { return (seq << 6) | (attempt & 63); }

/// Apply the sender-side payload faults (mangle, then sdc) with independent
/// per-attempt rolls.  Shared by first transmission and every retransmit so
/// a persistently corrupting sender stays corrupt across attempts while a
/// transient one heals.  Returns how many faults fired.
uint64_t apply_payload_faults(std::span<uint8_t> payload, const FaultPlan& plan, int src,
                              int dst, uint64_t counter) {
  uint64_t fired = 0;
  if (plan.mangle > 0.0 &&
      fault_roll(plan.seed, FaultKind::kMangle, src, dst, counter) < plan.mangle) {
    mangle_payload(payload, plan.seed, src, dst, counter);
    ++fired;
  }
  if (plan.sdc > 0.0 &&
      fault_roll(plan.seed, FaultKind::kSdc, src, dst, counter) < plan.sdc) {
    flip_sdc_bit(payload, plan.seed, src, dst, counter);
    ++fired;
  }
  return fired;
}

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
      group_(static_cast<size_t>(size)),
      accepted_(static_cast<size_t>(size)),
      limbo_(static_cast<size_t>(size)) {
  for (int i = 0; i < size; ++i) group_[static_cast<size_t>(i)] = i;
}

const NetModel& Comm::net() const { return runtime_->net(); }
const FaultPlan& Comm::faults() const { return runtime_->faults(); }

void Comm::maybe_stall(FaultKind kind) {
  const FaultPlan& plan = runtime_->faults();
  if (plan.stall <= 0.0) return;
  if (fault_roll(plan.seed, kind, phys_rank(), phys_rank(), stall_counter_++) < plan.stall) {
    ++endpoint_.transport().stalls;
    endpoint_.spend(plan.stall_seconds * endpoint_.cost_factor(),
                    {.kind = trace::EventKind::kStall}, trace::kNoJob);
  }
}

void Comm::send(int dst, int tag, std::span<const uint8_t> payload) {
  if (dst < 0 || dst >= size_) throw hzccl::Error("send: bad destination rank");
  runtime_->check_rank_fault(*this);
  maybe_stall(FaultKind::kStallSend);
  // Eager protocol: the sender only pays injection latency; the transfer
  // itself is accounted at the receiver against the send timestamp.
  const int pdst = to_phys(dst);
  const uint64_t seq = endpoint_.inject(pdst, tag, payload.size(), trace::kNoJob);
  bytes_sent_ += payload.size();
  runtime_->transmit(*this, pdst, tag, seq, payload);
}

Delivery Comm::receive(int src, int tag) {
  if (src < 0 || src >= size_) throw hzccl::Error("recv: bad source rank");
  runtime_->check_rank_fault(*this);
  // The NIC drains any reorder-held frames while this rank is about to wait;
  // this keeps the release points deterministic and the transport
  // deadlock-free (a blocked rank never sits on undelivered traffic).
  runtime_->flush_limbo(*this);
  maybe_stall(FaultKind::kStallRecv);
  Delivery delivery = runtime_->take(*this, to_phys(src), tag);
  bytes_received_ += delivery.payload().size();
  return delivery;
}

std::vector<uint8_t> Comm::recv(int src, int tag) {
  Delivery delivery = receive(src, tag);
  // Slide the payload over the header: the one copy out, with no second
  // allocation.
  delivery.bytes.erase(delivery.bytes.begin(),
                       delivery.bytes.begin() + static_cast<ptrdiff_t>(delivery.offset));
  return std::move(delivery.bytes);
}

void Comm::recv_into(int src, int tag, std::span<uint8_t> out) {
  const Delivery delivery = receive(src, tag);
  const std::span<const uint8_t> payload = delivery.payload();
  if (payload.size() != out.size()) {
    throw hzccl::Error("recv_into: message size " + std::to_string(payload.size()) +
                       " != buffer size " + std::to_string(out.size()));
  }
  std::memcpy(out.data(), payload.data(), payload.size());
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
    : nranks_(nranks), net_(net), faults_(std::move(faults)), trace_opts_(trace_opts) {
  if (nranks <= 0) throw hzccl::Error("Runtime: rank count must be positive");
  mailboxes_.reserve(static_cast<size_t>(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  if (rank_faults_on()) {
    faults_.validate();
    resolved_faults_ = faults_.resolve_rank_faults(nranks);
  }
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
    stale = std::erase_if(box.messages, [&](const WireMessage& m) { return m.epoch < new_epoch; });
    std::erase_if(box.window, [&](const WindowEntry& w) { return w.epoch < new_epoch; });
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

void Runtime::post(int dst, WireMessage msg) {
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

void Runtime::transmit(Comm& sender, int dst, int tag, uint64_t seq,
                       std::span<const uint8_t> payload) {
  const int src = sender.phys_rank();
  const bool on = faults_.enabled();
  hzccl::TransportStats& stats = sender.endpoint_.transport();

  WireMessage msg;
  msg.src = src;
  msg.tag = tag;
  msg.seq = seq;
  msg.epoch = sender.epoch_view_;
  msg.send_vtime = sender.endpoint_.now();
  // Frame in place: one allocation and one copy of the caller's bytes.  The
  // sender-side faults scribble on the frame body before the seal, so the
  // CRCs cover the corrupted bytes and the wire checks cannot see them.
  msg.frame.reserve(frame_size(payload.size()));
  msg.frame.resize(sizeof(FrameHeader));
  msg.frame.insert(msg.frame.end(), payload.begin(), payload.end());
  if (on) {
    stats.faults_injected +=
        apply_payload_faults(std::span<uint8_t>(msg.frame).subspan(sizeof(FrameHeader)), faults_,
                             src, dst, attempt_counter(seq, 0));
  }
  seal_frame(seq, msg.frame);

  // Roll the wire dice.  Drop preempts everything; the others compose.
  const bool dropped =
      on && faults_.drop > 0.0 &&
      fault_roll(faults_.seed, FaultKind::kDrop, src, dst, seq) < faults_.drop;
  const bool corrupted =
      !dropped && on && faults_.corrupt > 0.0 &&
      fault_roll(faults_.seed, FaultKind::kCorrupt, src, dst, seq) < faults_.corrupt;
  const bool duplicated =
      !dropped && on && faults_.duplicate > 0.0 &&
      fault_roll(faults_.seed, FaultKind::kDuplicate, src, dst, seq) < faults_.duplicate;
  const bool held =
      !dropped && on && faults_.reorder > 0.0 &&
      sender.limbo_[static_cast<size_t>(dst)] == nullptr &&
      fault_roll(faults_.seed, FaultKind::kReorder, src, dst, seq) < faults_.reorder;
  stats.faults_injected +=
      static_cast<uint64_t>(dropped) + static_cast<uint64_t>(corrupted) +
      static_cast<uint64_t>(duplicated) + static_cast<uint64_t>(held);

  if (corrupted) {
    const uint64_t bit = fault_mix(faults_.seed,
                                   (static_cast<uint64_t>(FaultKind::kCorruptBit) << 48) |
                                       (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 24) |
                                       static_cast<uint64_t>(static_cast<uint32_t>(dst)),
                                   seq) %
                         (msg.frame.size() * 8);
    msg.frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }

  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  if (on) {
    WindowEntry entry;
    entry.src = src;
    entry.tag = tag;
    entry.seq = seq;
    entry.epoch = msg.epoch;
    entry.pristine.assign(payload.begin(), payload.end());
    entry.send_vtime = msg.send_vtime;
    entry.outcome = dropped ? WireOutcome::kDropped
                            : (held ? WireOutcome::kHeld : WireOutcome::kDelivered);
    std::lock_guard<std::mutex> lock(box.mutex);
    box.window.push_back(std::move(entry));
  }

  if (dropped) {
    // Nothing reaches the mailbox; wake the receiver so it can observe the
    // window entry and start its timeout/NACK recovery.
    box.cv.notify_all();
    return;
  }
  if (held) {
    sender.limbo_[static_cast<size_t>(dst)] = std::make_unique<WireMessage>(std::move(msg));
    return;
  }
  if (duplicated) {
    // Both copies enter the mailbox atomically, so the receiver's view of
    // "original accepted, duplicate pending" is the same on every replay.
    WireMessage copy = msg;
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.messages.push_back(std::move(msg));
      box.messages.push_back(std::move(copy));
    }
    box.cv.notify_all();
  } else {
    post(dst, std::move(msg));
  }

  // Release a previously held frame *behind* the one just posted — the
  // observable reordering on this link.
  release_held(sender, dst, WireOutcome::kDelivered);
}

void Runtime::release_held(Comm& sender, int dst, WireOutcome outcome) {
  std::unique_ptr<WireMessage>& held = sender.limbo_[static_cast<size_t>(dst)];
  if (!held) return;
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    for (WindowEntry& e : box.window) {
      if (e.src == sender.phys_rank() && e.seq == held->seq && e.outcome == WireOutcome::kHeld) {
        e.outcome = outcome;
        break;
      }
    }
  }
  if (outcome == WireOutcome::kDelivered) {
    post(dst, std::move(*held));
  } else {
    // Nothing reaches the mailbox; wake the receiver so it can observe the
    // dropped entry and start its timeout/NACK recovery.
    box.cv.notify_all();
  }
  held.reset();
}

void Runtime::flush_limbo(Comm& sender, WireOutcome outcome) {
  for (int dst = 0; dst < nranks_; ++dst) release_held(sender, dst, outcome);
}

void Runtime::Mailbox::consume(int src, int tag, uint64_t seq) {
  std::erase_if(window, [&](const WindowEntry& w) {
    return w.src == src && w.tag == tag && w.consumed && w.seq != seq;
  });
  for (WindowEntry& w : window) {
    if (w.src == src && w.seq == seq) w.consumed = true;
  }
}

double Runtime::resend_seconds(const Comm& receiver, int src, size_t bytes) const {
  return net_.link_retransmit_seconds(bytes, src, receiver.phys_rank(), nranks_) *
         receiver.endpoint_.cost_factor();
}

std::vector<uint8_t> Runtime::retransmit(Comm& receiver, WindowEntry& e, double seconds) {
  ++e.attempts;
  ++receiver.endpoint_.transport().retransmits;
  std::vector<uint8_t> payload = e.pristine;
  apply_payload_faults(payload, faults_, e.src, receiver.phys_rank(),
                       attempt_counter(e.seq, e.attempts - 1));
  receiver.endpoint_.spend(seconds,
                           {.seq = e.seq, .bytes = payload.size(), .peer = e.src, .tag = e.tag,
                            .kind = trace::EventKind::kRetransmit, .aux = trace::kAuxRetransmit},
                           trace::kNoJob);
  return payload;
}

Delivery Runtime::take(Comm& receiver, int src, int tag) {
  Endpoint& ep = receiver.endpoint_;
  const int me = receiver.phys_rank();
  Mailbox& box = *mailboxes_[static_cast<size_t>(me)];
  std::unordered_set<uint64_t>& accepted = receiver.accepted_[static_cast<size_t>(src)];
  std::unique_lock<std::mutex> lock(box.mutex);

  // Recover the pristine payload of window entry `e` after a NACK; the
  // retransmission starts at `start_time`.
  const auto recover = [&](WindowEntry& e, double start_time) {
    std::vector<uint8_t> payload = retransmit(
        receiver, e,
        start_time + resend_seconds(receiver, src, frame_size(e.pristine.size())) - ep.now());
    accepted.insert(e.seq);
    ++ep.transport().frames_accepted;
    box.consume(src, tag, e.seq);
    return Delivery{std::move(payload), 0};
  };

  for (;;) {
    // Purge duplicates of already-accepted transmissions from this source,
    // and (under rank faults) frames stamped with an epoch older than this
    // rank's group view — traffic of a failed attempt that shrink missed.
    // A duplicate enters the mailbox atomically with its original, so by
    // the time the original is accepted the copy is visible here — the
    // discard count replays exactly.
    for (auto dup = box.messages.begin(); dup != box.messages.end();) {
      const bool stale =
          rank_faults_on() && dup->src == src && dup->epoch < receiver.epoch_view_;
      if (stale || (dup->src == src && accepted.count(dup->seq))) {
        if (stale) {
          ++ep.health().stale_discards;
        } else {
          ++ep.transport().duplicate_discards;
        }
        ep.spend(net_.link_latency_s(src, me),
                 {.seq = dup->seq, .bytes = dup->frame.size(), .peer = src, .tag = dup->tag,
                  .kind = trace::EventKind::kDiscard,
                  .aux = stale ? trace::kAuxStaleEpoch : uint8_t{0}},
                 trace::kNoJob);
        dup = box.messages.erase(dup);
      } else {
        ++dup;
      }
    }

    const auto it = std::find_if(
        box.messages.begin(), box.messages.end(),
        [&](const WireMessage& m) { return m.src == src && m.tag == tag; });
    if (it != box.messages.end()) {
      WireMessage msg = std::move(*it);
      box.messages.erase(it);
      const FrameView frame = decode_frame(msg.frame);

      const double ready = ep.ready_at(src, msg.frame.size(), msg.send_vtime, nranks_);
      if (frame.valid) {
        accepted.insert(frame.seq);
        ep.accept({src, msg.tag, msg.seq, frame.payload.size(), msg.send_vtime}, ready,
                  trace::kNoJob);
        if (faults_.enabled()) box.consume(src, tag, msg.seq);
        return Delivery{std::move(msg.frame), sizeof(FrameHeader)};
      }

      // The CRC/length validation rejected the frame: pay for having
      // received the damaged bytes, then NACK for a retransmission.
      ++ep.transport().corrupt_frames;
      const auto wit = std::find_if(box.window.begin(), box.window.end(), [&](const WindowEntry& w) {
        return w.src == src && w.seq == msg.seq && !w.consumed;
      });
      if (wit == box.window.end()) {
        throw hzccl::Error("simmpi: corrupt frame with no in-flight window entry");
      }
      return recover(*wit, ready);
    }

    // No matching frame on the wire.  A window entry whose final outcome is
    // "dropped" can never arrive, so the receiver times out on the virtual
    // clock and NACKs; anything else (not yet sent, or held and guaranteed
    // to be released) is worth blocking for.
    if (faults_.enabled()) {
      WindowEntry* lost = nullptr;
      for (WindowEntry& w : box.window) {
        if (w.src == src && w.tag == tag && !w.consumed && w.epoch == receiver.epoch_view_ &&
            w.outcome == WireOutcome::kDropped && (!lost || w.seq < lost->seq)) {
          lost = &w;
        }
      }
      if (lost) {
        ++ep.transport().timeout_waits;
        const double timed_out = std::max(ep.now(), lost->send_vtime) + faults_.recv_timeout_s;
        return recover(*lost, timed_out);
      }
    }

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

std::vector<uint8_t> Runtime::refetch(Comm& receiver, int src, int tag, Comm::Refetch mode,
                                      size_t raw_bytes_hint) {
  if (!faults_.enabled()) {
    throw hzccl::Error("refetch: the in-flight window is only kept under a FaultPlan");
  }
  Mailbox& box = *mailboxes_[static_cast<size_t>(receiver.phys_rank())];
  std::lock_guard<std::mutex> lock(box.mutex);

  // The most recently consumed message on this (src, tag) flow is the one
  // the caller just failed to decode.
  WindowEntry* entry = nullptr;
  for (WindowEntry& w : box.window) {
    if (w.src == src && w.tag == tag && w.consumed && w.epoch == receiver.epoch_view_ &&
        (!entry || w.seq > entry->seq)) {
      entry = &w;
    }
  }
  if (!entry) {
    throw hzccl::Error("refetch: no consumed message from rank " + std::to_string(src) +
                       " tag " + std::to_string(tag) + " in the in-flight window");
  }

  if (mode == Comm::Refetch::kRetransmit) {
    return retransmit(receiver, *entry,
                      resend_seconds(receiver, src, frame_size(entry->pristine.size())));
  }

  // Raw fallback: the sender re-reads its intact source copy and ships the
  // uncompressed block, priced at the raw size.  The data path returns the
  // pristine payload; the caller models the sender-side decode.
  ++receiver.endpoint_.transport().raw_fallbacks;
  const size_t raw_bytes = raw_bytes_hint != 0 ? raw_bytes_hint : entry->pristine.size();
  receiver.endpoint_.spend(resend_seconds(receiver, src, raw_bytes),
                           {.seq = entry->seq, .bytes = entry->pristine.size(), .peer = src,
                            .tag = tag, .kind = trace::EventKind::kRetransmit,
                            .aux = trace::kAuxRawFallback},
                           trace::kNoJob);
  return entry->pristine;
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
    box->messages.clear();
    box->window.clear();
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
