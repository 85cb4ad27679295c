#include "hzccl/simmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>

#include "hzccl/integrity/sdc.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::simmpi {

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

}  // namespace

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

Comm::Comm(Runtime* rt, int rank, int size)
    : runtime_(rt),
      rank_(rank),
      size_(size),
      phys_rank_(rank),
      group_(static_cast<size_t>(size)),
      send_seq_(static_cast<size_t>(size), 0),
      accepted_(static_cast<size_t>(size)),
      limbo_(static_cast<size_t>(size)) {
  for (int i = 0; i < size; ++i) group_[static_cast<size_t>(i)] = i;
  const RankFaultSlot slot = rank_fault_slot(rt->resolved_faults_, rank);
  cost_factor_ = slot.cost_factor;
  health_.straggles = slot.straggler ? 1 : 0;
  stop_fault_ = slot.stop;
}

const NetModel& Comm::net() const { return runtime_->net(); }
const FaultPlan& Comm::faults() const { return runtime_->faults(); }

void Comm::maybe_stall(FaultKind kind) {
  const FaultPlan& plan = runtime_->faults();
  if (plan.stall <= 0.0) return;
  if (fault_roll(plan.seed, kind, phys_rank_, phys_rank_, stall_counter_++) < plan.stall) {
    const double t0 = clock_.now();
    clock_.advance(plan.stall_seconds * cost_factor_, CostBucket::kMpi);
    ++transport_.stalls;
    if (trace_.enabled()) {
      trace::Event e;
      e.t0 = t0;
      e.t1 = clock_.now();
      e.kind = trace::EventKind::kStall;
      trace_.record(e);
    }
  }
}

void Comm::send(int dst, int tag, std::span<const uint8_t> payload) {
  if (dst < 0 || dst >= size_) throw hzccl::Error("send: bad destination rank");
  runtime_->check_rank_fault(*this);
  maybe_stall(FaultKind::kStallSend);
  // Eager protocol: the sender only pays injection latency; the transfer
  // itself is accounted at the receiver against the send timestamp.
  const int pdst = to_phys(dst);
  const uint64_t seq = send_seq_[static_cast<size_t>(pdst)];
  const double t0 = clock_.now();
  clock_.advance(runtime_->net().link_latency_s(phys_rank_, pdst) * cost_factor_,
                 CostBucket::kMpi);
  bytes_sent_ += payload.size();
  runtime_->transmit(*this, pdst, tag, payload);
  if (trace_.enabled()) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = clock_.now();
    e.seq = seq;
    e.bytes = payload.size();
    e.peer = pdst;
    e.tag = tag;
    e.kind = trace::EventKind::kSend;
    trace_.record(e);
  }
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
  if (runtime_->rank_faults_on()) {
    runtime_->rf_barrier_wait(*this);
  } else {
    runtime_->barrier_wait(*this);
  }
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
  const double t0 = clock_.now();
  // The fault-plan seed feeds the jitter draw so a faulted run replays —
  // backoff included — from one number.
  clock_.advance(policy.backoff_for(failures, runtime_->faults().seed), CostBucket::kMpi);
  ++health_.retries;
  if (trace_.enabled()) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = clock_.now();
    e.seq = failures;
    e.kind = trace::EventKind::kBackoff;
    trace_.record(e);
  }
}

void Comm::charge(CostBucket bucket, double seconds, trace::EventKind kind, uint64_t bytes,
                  uint64_t bytes_out) {
  const double t0 = clock_.now();
  clock_.advance(seconds * cost_factor_, bucket);
  if (trace_.enabled() && seconds > 0.0) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = clock_.now();
    e.bytes = bytes;
    e.bytes_out = bytes_out;
    e.kind = kind;
    // Compute spans record which kernel dispatch level ran them (aux 0 =
    // scalar), so perf traces attribute throughput to the path taken.
    if (!trace::kind_is_transport(kind)) {
      e.aux = static_cast<uint8_t>(kernels::active_dispatch_level());
    }
    trace_.record(e);
  }
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
    rank_state_.assign(static_cast<size_t>(nranks), RankState{});
    shrink_arrived_.assign(static_cast<size_t>(nranks), 0);
    members_.resize(static_cast<size_t>(nranks));
    for (int i = 0; i < nranks; ++i) members_[static_cast<size_t>(i)] = i;
  }
}

Runtime::~Runtime() = default;

void Runtime::check_rank_fault(Comm& comm) {
  if (!rank_faults_on()) return;
  ++comm.transport_ops_;
  const RankFault* f = comm.stop_fault_;
  if (f != nullptr && f->due(comm.transport_ops_, comm.clock_.now())) {
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
  const int me = comm.phys_rank_;
  if (hang) {
    // A hung rank stays attached: its NIC drains the reorder-held frames
    // before the death becomes visible, so peers consume them normally.
    flush_limbo(comm);
  } else if (faults_.enabled()) {
    // Crash: the NIC dies with held frames still parked.  Their window
    // entries flip to "dropped" so receivers recover them with the standard
    // timeout/NACK machinery instead of blocking forever — the fabric, not
    // the dead process, retains the pristine copy.
    for (int dst = 0; dst < nranks_; ++dst) {
      std::unique_ptr<WireMessage>& heldmsg = comm.limbo_[static_cast<size_t>(dst)];
      if (!heldmsg) continue;
      Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
      {
        std::lock_guard<std::mutex> lock(box.mutex);
        for (WindowEntry& e : box.window) {
          if (e.src == me && e.seq == heldmsg->seq && e.outcome == WireOutcome::kHeld) {
            e.outcome = WireOutcome::kDropped;
            break;
          }
        }
      }
      box.cv.notify_all();
      heldmsg.reset();
    }
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    RankState& st = rank_state_[static_cast<size_t>(me)];
    st.dead = true;
    st.stop_vtime = comm.clock_.now();
    if (hang) {
      ++comm.health_.hangs;
    } else {
      ++comm.health_.crashes;
    }
    try_complete_agreement_locked();
    try_complete_shrink_locked();
  }
  control_cv_.notify_all();
  wake_all_mailboxes();
  throw RankStopSignal{};
}

void Runtime::mark_finished(Comm& comm) {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    RankState& st = rank_state_[static_cast<size_t>(comm.phys_rank_)];
    st.finished = true;
    st.stop_vtime = comm.clock_.now();
    try_complete_agreement_locked();
    try_complete_shrink_locked();
  }
  control_cv_.notify_all();
  wake_all_mailboxes();
}

void Runtime::declare_peer_failed(Comm& receiver, int peer, double stop_vtime) {
  VirtualClock& clock = receiver.clock_;
  // Charge the health-machine deadlines: the receiver's patience runs from
  // the later of its own clock and the peer's final stop time — both pure
  // virtual quantities, so the charge replays exactly.
  const double base = std::max(clock.now(), stop_vtime);
  const double t0 = clock.now();
  const double suspect_at = base + faults_.recv_timeout_s;
  clock.advance_to(suspect_at, CostBucket::kMpi);
  ++receiver.health_.suspects;
  if (receiver.trace_.enabled()) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = clock.now();
    e.peer = peer;
    e.kind = trace::EventKind::kSuspect;
    receiver.trace_.record(e);
  }
  const double mid = clock.now();
  clock.advance_to(suspect_at + faults_.fail_timeout_s, CostBucket::kMpi);
  ++receiver.health_.dead_declared;
  if (receiver.trace_.enabled()) {
    trace::Event e;
    e.t0 = mid;
    e.t1 = clock.now();
    e.peer = peer;
    e.kind = trace::EventKind::kDetect;
    receiver.trace_.record(e);
  }
  throw RankRevokedSignal{};
}

void Runtime::try_complete_agreement_locked() {
  if (members_.empty()) return;
  // The round completes when every member has a final verdict: parked in
  // the round, dead, or finished.  At least one parked rank must exist —
  // otherwise no round is in progress.
  bool any_stopped = false;
  for (int m : members_) {
    const RankState& st = rank_state_[static_cast<size_t>(m)];
    if (st.stopped) {
      any_stopped = true;
    } else if (!st.dead && !st.finished) {
      return;
    }
  }
  if (!any_stopped) return;
  agree_failed_.clear();
  int survivors = 0;
  for (int m : members_) {
    const RankState& st = rank_state_[static_cast<size_t>(m)];
    if (st.dead) {
      agree_failed_.push_back(m);
    } else {
      ++survivors;
    }
  }
  // Ring collect + broadcast of the failed-rank set over the survivors,
  // skipping dead hops: 2(S-1) latency-priced hops after the last arrival.
  const double hops = survivors > 1 ? 2.0 * static_cast<double>(survivors - 1) : 0.0;
  agree_release_vtime_ = agree_max_vtime_ + hops * net_.latency_s;
  agree_epoch_ = epoch_;
  if (agree_failed_.empty()) {
    // Unanimous success: the group continues unchanged into the next round.
    for (int m : members_) rank_state_[static_cast<size_t>(m)].stopped = false;
  }
  // On failure the parked flags stay set until shrink() installs the new
  // epoch: a failed-epoch rank must remain hopeless to wait for.
  agree_max_vtime_ = 0.0;
  ++agree_generation_;
}

void Runtime::agreement(Comm& comm) {
  const int me = comm.phys_rank_;
  const double arrival = comm.clock_.now();
  uint64_t my_generation;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    RankState& st = rank_state_[static_cast<size_t>(me)];
    st.stopped = true;
    st.stop_vtime = arrival;
    agree_max_vtime_ = std::max(agree_max_vtime_, arrival);
    my_generation = agree_generation_;
    try_complete_agreement_locked();
  }
  control_cv_.notify_all();
  // Peers blocked in take() re-evaluate hopelessness against this arrival.
  wake_all_mailboxes();

  std::vector<int> failed;
  double release = 0.0;
  uint32_t epoch = 0;
  {
    std::unique_lock<std::mutex> lock(control_mutex_);
    control_cv_.wait(lock, [&] {
      return agree_generation_ != my_generation || aborted_.load(std::memory_order_acquire);
    });
    if (agree_generation_ == my_generation) {
      throw hzccl::Error("simmpi: a peer rank failed while this rank was in an agreement");
    }
    failed = agree_failed_;
    release = agree_release_vtime_;
    epoch = agree_epoch_;
  }
  const double t0 = comm.clock_.now();
  comm.clock_.advance_to(release, CostBucket::kMpi);
  ++comm.health_.agreements;
  if (comm.trace_.enabled()) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = comm.clock_.now();
    e.seq = epoch;
    e.bytes = failed.size();
    e.kind = trace::EventKind::kAgree;
    comm.trace_.record(e);
  }
  if (!failed.empty()) {
    ++comm.health_.failed_agreements;
    throw RankFailedError(std::move(failed), epoch);
  }
}

void Runtime::try_complete_shrink_locked() {
  if (agree_failed_.empty()) return;  // no failed agreement pending recovery
  bool any_arrived = false;
  for (int m : members_) {
    if (std::find(agree_failed_.begin(), agree_failed_.end(), m) != agree_failed_.end()) {
      continue;  // agreed-dead: excluded from the rebuild
    }
    const RankState& st = rank_state_[static_cast<size_t>(m)];
    if (shrink_arrived_[static_cast<size_t>(m)]) {
      any_arrived = true;
    } else if (!st.dead && !st.finished) {
      return;  // a survivor is still on its way
    }
  }
  if (!any_arrived) return;
  // Install the new epoch over the agreed survivors.  A rank that died
  // *during* the shrink stays in the new group as a dead member; the next
  // attempt detects it and shrinks again.
  std::vector<int> next;
  next.reserve(members_.size());
  for (int m : members_) {
    if (std::find(agree_failed_.begin(), agree_failed_.end(), m) == agree_failed_.end()) {
      next.push_back(m);
    }
  }
  members_ = std::move(next);
  ++epoch_;
  for (int m : members_) rank_state_[static_cast<size_t>(m)].stopped = false;
  agree_failed_.clear();
  const size_t survivors = members_.size();
  const double hops = survivors > 1 ? 2.0 * static_cast<double>(survivors - 1) : 0.0;
  shrink_release_vtime_ = shrink_max_vtime_ + hops * net_.latency_s;
  shrink_max_vtime_ = 0.0;
  std::fill(shrink_arrived_.begin(), shrink_arrived_.end(), 0);
  ++shrink_generation_;
}

void Runtime::shrink_group(Comm& comm) {
  if (!rank_faults_on()) {
    throw hzccl::Error("shrink: only meaningful with scheduled rank faults");
  }
  check_rank_fault(comm);
  flush_limbo(comm);
  const int me = comm.phys_rank_;
  const double arrival = comm.clock_.now();
  uint64_t my_generation;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (agree_failed_.empty() && shrink_generation_ == 0) {
      throw hzccl::Error("shrink: no failed agreement to recover from");
    }
    shrink_arrived_[static_cast<size_t>(me)] = 1;
    shrink_max_vtime_ = std::max(shrink_max_vtime_, arrival);
    my_generation = shrink_generation_;
    try_complete_shrink_locked();
  }
  control_cv_.notify_all();

  double release = 0.0;
  uint32_t new_epoch = 0;
  {
    std::unique_lock<std::mutex> lock(control_mutex_);
    control_cv_.wait(lock, [&] {
      return shrink_generation_ != my_generation || aborted_.load(std::memory_order_acquire);
    });
    if (shrink_generation_ == my_generation) {
      throw hzccl::Error("simmpi: a peer rank failed while this rank was in a shrink");
    }
    release = shrink_release_vtime_;
    new_epoch = epoch_;
    comm.group_ = members_;
  }
  comm.epoch_view_ = new_epoch;
  comm.size_ = static_cast<int>(comm.group_.size());
  comm.rank_ = static_cast<int>(
      std::find(comm.group_.begin(), comm.group_.end(), me) - comm.group_.begin());
  if (comm.rank_ >= comm.size_) {
    throw hzccl::Error("shrink: this rank is not part of the surviving group");
  }
  // Purge this rank's mailbox of old-epoch traffic from the failed attempt.
  {
    Mailbox& box = *mailboxes_[static_cast<size_t>(me)];
    std::lock_guard<std::mutex> lock(box.mutex);
    const size_t before = box.messages.size();
    std::erase_if(box.messages,
                  [&](const WireMessage& m) { return m.epoch < new_epoch; });
    comm.health_.stale_discards += before - box.messages.size();
    std::erase_if(box.window, [&](const WindowEntry& w) { return w.epoch < new_epoch; });
  }
  const double t0 = comm.clock_.now();
  comm.clock_.advance_to(release, CostBucket::kMpi);
  ++comm.health_.shrinks;
  if (comm.trace_.enabled()) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = comm.clock_.now();
    e.seq = new_epoch;
    e.kind = trace::EventKind::kShrink;
    comm.trace_.record(e);
  }
}

void Runtime::rf_barrier_wait(Comm& comm) {
  VirtualClock& clock = comm.clock_;
  const double t0 = clock.now();
  const int me = comm.phys_rank_;
  std::unique_lock<std::mutex> lock(control_mutex_);
  const uint64_t my_generation = rf_barrier_generation_;
  rf_barrier_max_ = std::max(rf_barrier_max_, clock.now());
  ++rf_barrier_arrived_;
  for (;;) {
    if (rf_barrier_generation_ != my_generation) break;  // released
    if (rf_barrier_arrived_ == static_cast<int>(members_.size())) {
      const size_t n = members_.size();
      const double hops = n > 1 ? std::ceil(std::log2(static_cast<double>(n))) : 0.0;
      rf_barrier_release_ = rf_barrier_max_ + hops * net_.latency_s;
      rf_barrier_arrived_ = 0;
      rf_barrier_max_ = 0.0;
      ++rf_barrier_generation_;
      control_cv_.notify_all();
      break;
    }
    // A dead, parked or finished member can never arrive: the barrier is
    // hopeless.  The failure charge uses only this rank's own arrival time
    // (never the racy set of currently-visible causes), so it replays
    // exactly; peer=-1 marks "a member", not a specific culprit.
    bool hopeless = false;
    for (int m : members_) {
      if (m == me) continue;
      const RankState& st = rank_state_[static_cast<size_t>(m)];
      if (st.dead || st.stopped || st.finished) {
        hopeless = true;
        break;
      }
    }
    if (hopeless) {
      --rf_barrier_arrived_;
      lock.unlock();
      declare_peer_failed(comm, -1, -1.0);
    }
    if (aborted_.load(std::memory_order_acquire)) {
      --rf_barrier_arrived_;
      throw hzccl::Error("simmpi: a peer rank failed while this rank was in a barrier");
    }
    control_cv_.wait(lock);
  }
  clock.advance_to(rf_barrier_release_, CostBucket::kMpi);
  if (comm.trace_.enabled() && clock.now() > t0) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = clock.now();
    e.kind = trace::EventKind::kWait;
    comm.trace_.record(e);
  }
}

void Runtime::post(int dst, WireMessage msg) {
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

void Runtime::transmit(Comm& sender, int dst, int tag, std::span<const uint8_t> payload) {
  const int src = sender.phys_rank_;
  const uint64_t seq = sender.send_seq_[static_cast<size_t>(dst)]++;
  const bool on = faults_.enabled();
  ++sender.transport_.frames_sent;

  WireMessage msg;
  msg.src = src;
  msg.tag = tag;
  msg.seq = seq;
  msg.epoch = sender.epoch_view_;
  msg.send_vtime = sender.clock_.now();
  // Frame in place: one allocation and one copy of the caller's bytes.  The
  // sender-side faults scribble on the frame body before the seal, so the
  // CRCs cover the corrupted bytes and the wire checks cannot see them.
  msg.frame.reserve(frame_size(payload.size()));
  msg.frame.resize(sizeof(FrameHeader));
  msg.frame.insert(msg.frame.end(), payload.begin(), payload.end());
  if (on) {
    sender.transport_.faults_injected +=
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
  sender.transport_.faults_injected +=
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
  if (std::unique_ptr<WireMessage>& heldmsg = sender.limbo_[static_cast<size_t>(dst)]; heldmsg) {
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      for (WindowEntry& e : box.window) {
        if (e.src == src && e.seq == heldmsg->seq && e.outcome == WireOutcome::kHeld) {
          e.outcome = WireOutcome::kDelivered;
          break;
        }
      }
    }
    post(dst, std::move(*heldmsg));
    heldmsg.reset();
  }
}

void Runtime::flush_limbo(Comm& sender) {
  for (int dst = 0; dst < nranks_; ++dst) {
    std::unique_ptr<WireMessage>& heldmsg = sender.limbo_[static_cast<size_t>(dst)];
    if (!heldmsg) continue;
    Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      for (WindowEntry& e : box.window) {
        if (e.src == sender.phys_rank_ && e.seq == heldmsg->seq &&
            e.outcome == WireOutcome::kHeld) {
          e.outcome = WireOutcome::kDelivered;
          break;
        }
      }
    }
    post(dst, std::move(*heldmsg));
    heldmsg.reset();
  }
}

Delivery Runtime::take(Comm& receiver, int src, int tag) {
  const int me = receiver.phys_rank_;
  Mailbox& box = *mailboxes_[static_cast<size_t>(me)];
  std::unordered_set<uint64_t>& accepted = receiver.accepted_[static_cast<size_t>(src)];
  std::unique_lock<std::mutex> lock(box.mutex);

  // Recover the pristine payload of window entry `e` after a NACK:
  // re-transmission re-rolls the mangle die (a persistently corrupting
  // sender stays corrupt), marks the entry consumed and prunes stale
  // consumed entries on the same (src, tag) flow.
  const auto recover = [&](WindowEntry& e, double start_time) {
    ++e.attempts;
    ++receiver.transport_.retransmits;
    std::vector<uint8_t> payload = e.pristine;
    apply_payload_faults(payload, faults_, src, me, attempt_counter(e.seq, e.attempts - 1));
    const size_t frame_bytes = sizeof(FrameHeader) + payload.size();
    const double t0 = receiver.clock_.now();
    receiver.clock_.advance_to(
        start_time +
            net_.link_retransmit_seconds(frame_bytes, src, me, nranks_) * receiver.cost_factor_,
        CostBucket::kMpi);
    if (receiver.trace_.enabled()) {
      trace::Event ev;
      ev.t0 = t0;
      ev.t1 = receiver.clock_.now();
      ev.seq = e.seq;
      ev.bytes = payload.size();
      ev.peer = src;
      ev.tag = tag;
      ev.kind = trace::EventKind::kRetransmit;
      ev.aux = trace::kAuxRetransmit;
      receiver.trace_.record(ev);
    }
    accepted.insert(e.seq);
    ++receiver.transport_.frames_accepted;
    const uint64_t keep_seq = e.seq;
    std::erase_if(box.window, [&](const WindowEntry& w) {
      return w.src == src && w.tag == tag && w.consumed && w.seq != keep_seq;
    });
    for (WindowEntry& w : box.window) {
      if (w.src == src && w.seq == keep_seq) w.consumed = true;
    }
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
          ++receiver.health_.stale_discards;
        } else {
          ++receiver.transport_.duplicate_discards;
        }
        const double t0 = receiver.clock_.now();
        receiver.clock_.advance(net_.link_latency_s(src, me), CostBucket::kMpi);
        if (receiver.trace_.enabled()) {
          trace::Event ev;
          ev.t0 = t0;
          ev.t1 = receiver.clock_.now();
          ev.seq = dup->seq;
          ev.bytes = dup->frame.size();
          ev.peer = src;
          ev.tag = dup->tag;
          ev.kind = trace::EventKind::kDiscard;
          if (stale) ev.aux = trace::kAuxStaleEpoch;
          receiver.trace_.record(ev);
        }
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

      if (accepted.count(msg.seq)) {
        // A duplicate (possibly also corrupted) of something already
        // consumed: discard after the header sniff.
        ++receiver.transport_.duplicate_discards;
        const double t0 = receiver.clock_.now();
        receiver.clock_.advance(net_.link_latency_s(src, me), CostBucket::kMpi);
        if (receiver.trace_.enabled()) {
          trace::Event ev;
          ev.t0 = t0;
          ev.t1 = receiver.clock_.now();
          ev.seq = msg.seq;
          ev.bytes = msg.frame.size();
          ev.peer = src;
          ev.tag = msg.tag;
          ev.kind = trace::EventKind::kDiscard;
          receiver.trace_.record(ev);
        }
        continue;
      }

      if (frame.valid) {
        accepted.insert(frame.seq);
        ++receiver.transport_.frames_accepted;
        // Partition the advance into a wait-for-the-sender span (idle) and a
        // wire-transfer span (comm) so the trace attributes slack correctly.
        const double t_enter = receiver.clock_.now();
        const double data_ready = std::max(t_enter, msg.send_vtime);
        const double ready =
            data_ready +
            net_.link_seconds(msg.frame.size(), src, me, nranks_) * receiver.cost_factor_;
        receiver.clock_.advance_to(ready, CostBucket::kMpi);
        if (receiver.trace_.enabled()) {
          if (data_ready > t_enter) {
            trace::Event w;
            w.t0 = t_enter;
            w.t1 = data_ready;
            w.seq = msg.seq;
            w.peer = src;
            w.tag = msg.tag;
            w.kind = trace::EventKind::kWait;
            receiver.trace_.record(w);
          }
          trace::Event ev;
          ev.t0 = data_ready;
          ev.t1 = receiver.clock_.now();
          ev.seq = msg.seq;
          ev.bytes = frame.payload.size();
          ev.peer = src;
          ev.tag = msg.tag;
          ev.kind = trace::EventKind::kRecv;
          receiver.trace_.record(ev);
        }
        if (faults_.enabled()) {
          const uint64_t keep_seq = msg.seq;
          std::erase_if(box.window, [&](const WindowEntry& w) {
            return w.src == src && w.tag == tag && w.consumed && w.seq != keep_seq;
          });
          for (WindowEntry& w : box.window) {
            if (w.src == src && w.seq == keep_seq) w.consumed = true;
          }
        }
        return Delivery{std::move(msg.frame), sizeof(FrameHeader)};
      }

      // The CRC/length validation rejected the frame: pay for having
      // received the damaged bytes, then NACK for a retransmission.
      ++receiver.transport_.corrupt_frames;
      const double got_bad =
          std::max(receiver.clock_.now(), msg.send_vtime) +
          net_.link_seconds(msg.frame.size(), src, me, nranks_) * receiver.cost_factor_;
      const auto wit = std::find_if(box.window.begin(), box.window.end(), [&](const WindowEntry& w) {
        return w.src == src && w.seq == msg.seq && !w.consumed;
      });
      if (wit == box.window.end()) {
        throw hzccl::Error("simmpi: corrupt frame with no in-flight window entry");
      }
      return recover(*wit, got_bad);
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
        ++receiver.transport_.timeout_waits;
        const double timed_out =
            std::max(receiver.clock_.now(), lost->send_vtime) + faults_.recv_timeout_s;
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
      bool hopeless = false;
      double stop_vtime = 0.0;
      {
        std::lock_guard<std::mutex> control(control_mutex_);
        const RankState& st = rank_state_[static_cast<size_t>(src)];
        if (st.dead || st.stopped || st.finished) {
          hopeless = true;
          stop_vtime = st.stop_vtime;
        }
      }
      if (hopeless) {
        lock.unlock();
        declare_peer_failed(receiver, src, stop_vtime);
      }
    }

    if (aborted_.load(std::memory_order_acquire)) {
      throw hzccl::Error("simmpi: a peer rank failed while this rank was receiving");
    }
    box.cv.wait(lock);
  }
}

std::vector<uint8_t> Runtime::refetch(Comm& receiver, int src, int tag, Comm::Refetch mode,
                                      size_t raw_bytes_hint) {
  if (!faults_.enabled()) {
    throw hzccl::Error("refetch: the in-flight window is only kept under a FaultPlan");
  }
  const int me = receiver.phys_rank_;
  Mailbox& box = *mailboxes_[static_cast<size_t>(me)];
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

  const auto record_refetch = [&](double t0, uint64_t bytes, uint8_t aux) {
    if (!receiver.trace_.enabled()) return;
    trace::Event ev;
    ev.t0 = t0;
    ev.t1 = receiver.clock_.now();
    ev.seq = entry->seq;
    ev.bytes = bytes;
    ev.peer = src;
    ev.tag = tag;
    ev.kind = trace::EventKind::kRetransmit;
    ev.aux = aux;
    receiver.trace_.record(ev);
  };

  if (mode == Comm::Refetch::kRetransmit) {
    ++entry->attempts;
    ++receiver.transport_.retransmits;
    std::vector<uint8_t> payload = entry->pristine;
    apply_payload_faults(payload, faults_, src, me,
                         attempt_counter(entry->seq, entry->attempts - 1));
    const size_t frame_bytes = sizeof(FrameHeader) + payload.size();
    const double t0 = receiver.clock_.now();
    receiver.clock_.advance(
        net_.link_retransmit_seconds(frame_bytes, src, me, nranks_) * receiver.cost_factor_,
        CostBucket::kMpi);
    record_refetch(t0, payload.size(), trace::kAuxRetransmit);
    return payload;
  }

  // Raw fallback: the sender re-reads its intact source copy and ships the
  // uncompressed block, priced at the raw size.  The data path returns the
  // pristine payload; the caller models the sender-side decode.
  ++receiver.transport_.raw_fallbacks;
  const size_t raw_bytes = raw_bytes_hint != 0 ? raw_bytes_hint : entry->pristine.size();
  const double t0 = receiver.clock_.now();
  receiver.clock_.advance(
      net_.link_retransmit_seconds(raw_bytes, src, me, nranks_) * receiver.cost_factor_,
      CostBucket::kMpi);
  record_refetch(t0, entry->pristine.size(), trace::kAuxRawFallback);
  return entry->pristine;
}

void Runtime::barrier_wait(Comm& comm) {
  VirtualClock& clock = comm.clock_;
  const double t0 = clock.now();
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  const uint64_t my_generation = barrier_generation_;
  barrier_max_time_ = std::max(barrier_max_time_, clock.now());
  if (++barrier_arrived_ == nranks_) {
    // Dissemination barrier cost: ceil(log2 P) latency exchanges.
    const double hops = nranks_ > 1 ? std::ceil(std::log2(static_cast<double>(nranks_))) : 0.0;
    barrier_release_time_ = barrier_max_time_ + hops * net_.latency_s;
    barrier_arrived_ = 0;
    barrier_max_time_ = 0.0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] {
      return barrier_generation_ != my_generation ||
             aborted_.load(std::memory_order_acquire);
    });
    if (barrier_generation_ == my_generation) {
      // Woken by an abort, not a release; the barrier can never complete.
      --barrier_arrived_;
      throw hzccl::Error("simmpi: a peer rank failed while this rank was in a barrier");
    }
  }
  clock.advance_to(barrier_release_time_, CostBucket::kMpi);
  if (comm.trace_.enabled() && clock.now() > t0) {
    trace::Event e;
    e.t0 = t0;
    e.t1 = clock.now();
    e.kind = trace::EventKind::kWait;
    comm.trace_.record(e);
  }
}

std::vector<ClockReport> Runtime::run(const RankFn& fn) {
  std::vector<ClockReport> reports(static_cast<size_t>(nranks_));
  std::vector<hzccl::TransportStats> transport(static_cast<size_t>(nranks_));
  std::vector<hzccl::HealthStats> health(static_cast<size_t>(nranks_));
  std::vector<hzccl::IntegrityStats> integrity(static_cast<size_t>(nranks_));
  std::vector<std::vector<trace::Event>> streams(static_cast<size_t>(nranks_));
  std::vector<uint64_t> dropped(static_cast<size_t>(nranks_), 0);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(nranks_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(nranks_));

  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(this, r, nranks_);
      if (trace_opts_.enabled) {
        // Ring storage comes from this rank's thread-local pool: the one
        // allocation tracing ever makes, recycled across runs.
        comm.trace_.enable(trace_opts_.capacity, BufferPool::local());
      }
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
        if (rank_faults_on()) mark_finished(comm);
      } catch (const RankStopSignal&) {
        // An injected crash/hang, not an error: the control plane already
        // recorded the death and peers recover through detection/agreement.
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
        // Unblock peers waiting on this rank's messages or on the barrier;
        // they observe aborted_ and fail fast instead of deadlocking.
        aborted_.store(true, std::memory_order_release);
        for (auto& box : mailboxes_) {
          std::lock_guard<std::mutex> lock(box->mutex);
          box->cv.notify_all();
        }
        {
          std::lock_guard<std::mutex> lock(barrier_mutex_);
          barrier_cv_.notify_all();
        }
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
        streams[static_cast<size_t>(r)] = comm.trace_.snapshot();
        dropped[static_cast<size_t>(r)] = comm.trace_.dropped();
        comm.trace_.disable(BufferPool::local());
      }
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
  if (rank_faults_on()) {
    std::lock_guard<std::mutex> lock(control_mutex_);
    rank_state_.assign(static_cast<size_t>(nranks_), RankState{});
    std::fill(shrink_arrived_.begin(), shrink_arrived_.end(), 0);
    members_.resize(static_cast<size_t>(nranks_));
    for (int i = 0; i < nranks_; ++i) members_[static_cast<size_t>(i)] = i;
    epoch_ = 0;
    agree_generation_ = 0;
    agree_max_vtime_ = 0.0;
    agree_failed_.clear();
    agree_release_vtime_ = 0.0;
    agree_epoch_ = 0;
    shrink_generation_ = 0;
    shrink_max_vtime_ = 0.0;
    shrink_release_vtime_ = 0.0;
    rf_barrier_arrived_ = 0;
    rf_barrier_generation_ = 0;
    rf_barrier_max_ = 0.0;
    rf_barrier_release_ = 0.0;
  }
  transport_stats_ = std::move(transport);
  health_stats_ = std::move(health);
  integrity_stats_ = std::move(integrity);
  trace_ = trace::Trace{};
  if (trace_opts_.enabled) {
    trace_.ranks = std::move(streams);
    for (const uint64_t d : dropped) trace_.dropped_events += d;
  }

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return reports;
}

ClockReport Runtime::slowest(const std::vector<ClockReport>& reports) {
  ClockReport worst;
  for (const auto& r : reports) worst = ClockReport::max_of(worst, r);
  return worst;
}

}  // namespace hzccl::simmpi
