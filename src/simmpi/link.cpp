#include "hzccl/simmpi/link.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "hzccl/util/error.hpp"

namespace hzccl::simmpi {

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

/// The receiver accepted `seq` on the (src, tag) flow: mark its window
/// entry consumed and prune the flow's older consumed entries, so only the
/// newest stays for refetch.
void consume(Inbox& inbox, int src, int tag, uint64_t seq) {
  std::erase_if(inbox.window, [&](const WindowEntry& w) {
    return w.src == src && w.tag == tag && w.consumed && w.seq != seq;
  });
  for (WindowEntry& w : inbox.window) {
    if (w.src == src && w.seq == seq) w.consumed = true;
  }
}

}  // namespace

std::vector<uint8_t> Delivery::take_payload() && {
  bytes.erase(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(offset));
  return std::move(bytes);
}

void Delivery::copy_to(std::span<uint8_t> out) const {
  const std::span<const uint8_t> p = payload();
  if (p.size() != out.size()) {
    throw hzccl::Error("recv_into: message size " + std::to_string(p.size()) +
                       " != buffer size " + std::to_string(out.size()));
  }
  if (!landed) std::memcpy(out.data(), p.data(), p.size());
}

size_t Inbox::purge(uint32_t epoch) {
  std::erase_if(window, [&](const WindowEntry& w) { return w.epoch < epoch; });
  return std::erase_if(messages, [&](const WireMessage& m) { return m.epoch < epoch; });
}

void Link::stall(Endpoint& ep, FaultKind kind, uint8_t job) const {
  if (plan_->stall <= 0.0) return;
  const int rank = ep.phys_rank();
  if (fault_roll(plan_->seed, kind, rank, rank, ep.next_stall_roll()) < plan_->stall) {
    ++ep.transport().stalls;
    ep.spend(plan_->stall_seconds * ep.cost_factor(), {.kind = trace::EventKind::kStall}, job);
  }
}

Transmission Link::frame(Endpoint& sender, const LinkState& me, int dst, int tag, uint64_t seq,
                         uint32_t epoch, std::span<const uint8_t> payload) const {
  const FaultPlan& plan = *plan_;
  const int src = sender.phys_rank();
  const bool on = plan.enabled();
  TransportStats& stats = sender.transport();

  Transmission t;
  WireMessage& msg = t.msg;
  msg.src = src;
  msg.tag = tag;
  msg.seq = seq;
  msg.epoch = epoch;
  msg.send_vtime = sender.now();
  // Frame in place: one allocation and one pass over the caller's bytes,
  // each tile appended while its CRC is folded.  The sender-side faults
  // scribble on the frame body before the seal, and one that fires makes
  // the seal fold the body again, so the CRCs cover the corrupted bytes and
  // the wire checks cannot see them.
  msg.frame.reserve(frame_size(payload.size()));
  msg.frame.resize(sizeof(FrameHeader));
  uint32_t crc = crc32c_tiles(payload, [&](size_t, std::span<const uint8_t> tile) {
    msg.frame.insert(msg.frame.end(), tile.begin(), tile.end());
  });
  if (on) {
    const std::span<uint8_t> body = std::span<uint8_t>(msg.frame).subspan(sizeof(FrameHeader));
    const uint64_t fired = apply_payload_faults(body, plan, src, dst, attempt_counter(seq, 0));
    stats.faults_injected += fired;
    if (fired > 0) crc = crc32c(body);
  }
  seal_frame(seq, msg.frame, crc);
  if (!on) return t;

  // Roll the wire dice.  Drop preempts everything; the others compose.
  const bool dropped =
      plan.drop > 0.0 && fault_roll(plan.seed, FaultKind::kDrop, src, dst, seq) < plan.drop;
  const bool corrupted = !dropped && plan.corrupt > 0.0 &&
                         fault_roll(plan.seed, FaultKind::kCorrupt, src, dst, seq) < plan.corrupt;
  t.duplicated = !dropped && plan.duplicate > 0.0 &&
                 fault_roll(plan.seed, FaultKind::kDuplicate, src, dst, seq) < plan.duplicate;
  const bool held = !dropped && plan.reorder > 0.0 && !me.held.contains(dst) &&
                    fault_roll(plan.seed, FaultKind::kReorder, src, dst, seq) < plan.reorder;
  stats.faults_injected += static_cast<uint64_t>(dropped) + static_cast<uint64_t>(corrupted) +
                           static_cast<uint64_t>(t.duplicated) + static_cast<uint64_t>(held);

  if (corrupted) {
    const uint64_t bit = fault_mix(plan.seed,
                                   (static_cast<uint64_t>(FaultKind::kCorruptBit) << 48) |
                                       (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 24) |
                                       static_cast<uint64_t>(static_cast<uint32_t>(dst)),
                                   seq) %
                         (msg.frame.size() * 8);
    msg.frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  t.outcome = dropped ? WireOutcome::kDropped
                      : (held ? WireOutcome::kHeld : WireOutcome::kDelivered);
  t.pristine.assign(payload.begin(), payload.end());
  return t;
}

void Link::send(Inbox& inbox, LinkState& me, int dst, Transmission t) const {
  if (plan_->enabled()) {
    inbox.window.push_back(WindowEntry{.src = t.msg.src,
                                       .tag = t.msg.tag,
                                       .seq = t.msg.seq,
                                       .epoch = t.msg.epoch,
                                       .pristine = std::move(t.pristine),
                                       .send_vtime = t.msg.send_vtime,
                                       .outcome = t.outcome});
  }
  // A dropped frame exists only in the window until the receiver NACKs it.
  if (t.outcome == WireOutcome::kDropped) return;
  if (t.outcome == WireOutcome::kHeld) {
    me.held.emplace(dst, std::move(t.msg));
    return;
  }
  // Both copies of a duplicated frame enter the inbox together, so the
  // receiver's view of "original accepted, duplicate pending" is the same
  // on every replay.
  if (t.duplicated) inbox.messages.push_back(t.msg);
  inbox.messages.push_back(std::move(t.msg));
  release(inbox, me, dst, WireOutcome::kDelivered);
}

void Link::release(Inbox& inbox, LinkState& me, int dst, WireOutcome outcome) {
  const auto held = me.held.find(dst);
  if (held == me.held.end()) return;
  for (WindowEntry& e : inbox.window) {
    if (e.src == held->second.src && e.seq == held->second.seq &&
        e.outcome == WireOutcome::kHeld) {
      e.outcome = outcome;
      break;
    }
  }
  if (outcome == WireOutcome::kDelivered) inbox.messages.push_back(std::move(held->second));
  me.held.erase(held);
}

void Link::discard(Inbox& inbox, Endpoint& receiver, LinkState& me, int src, uint32_t epoch,
                   uint8_t job) const {
  // A duplicate enters the inbox together with its original, so by the time
  // the original is accepted the copy is here: the discard count replays
  // exactly.  A stale frame is traffic of a failed attempt that the shrink
  // purge missed.
  const bool rank_faults = plan_->rank_faults_enabled();
  for (auto dup = inbox.messages.begin(); dup != inbox.messages.end();) {
    const bool stale = rank_faults && dup->src == src && dup->epoch < epoch;
    if (stale || (dup->src == src && me.accepted.contains({src, dup->seq}))) {
      if (stale) {
        ++receiver.health().stale_discards;
      } else {
        ++receiver.transport().duplicate_discards;
      }
      receiver.spend(net_->link_latency_s(src, receiver.phys_rank()),
                     {.seq = dup->seq, .bytes = dup->frame.size(), .peer = src, .tag = dup->tag,
                      .kind = trace::EventKind::kDiscard,
                      .aux = stale ? trace::kAuxStaleEpoch : uint8_t{0}},
                     job);
      dup = inbox.messages.erase(dup);
    } else {
      ++dup;
    }
  }
}

Link::Match Link::match(const Inbox& inbox, const Endpoint& receiver, int src, int tag,
                        uint32_t epoch, double rate_cap) const {
  Match m;
  const auto it = std::find_if(inbox.messages.begin(), inbox.messages.end(),
                               [&](const WireMessage& w) { return w.src == src && w.tag == tag; });
  if (it != inbox.messages.end()) {
    m.frame = static_cast<size_t>(it - inbox.messages.begin());
    m.ready = receiver.ready_at(src, it->frame.size(), it->send_vtime, nranks_, rate_cap);
    return m;
  }
  // No matching frame on the wire.  A window entry whose final outcome is
  // "dropped" can never arrive, so the receiver times out on the virtual
  // clock and NACKs; anything else (not yet sent, or held and guaranteed to
  // be released) is worth waiting for.
  for (size_t i = 0; i < inbox.window.size(); ++i) {
    const WindowEntry& w = inbox.window[i];
    if (w.src == src && w.tag == tag && !w.consumed && w.epoch == epoch &&
        w.outcome == WireOutcome::kDropped &&
        (m.lost == Match::kNone || w.seq < inbox.window[m.lost].seq)) {
      m.lost = i;
    }
  }
  if (m.lost != Match::kNone) {
    m.ready = std::max(receiver.now(), inbox.window[m.lost].send_vtime) + plan_->recv_timeout_s;
  }
  return m;
}

double Link::ready(const Inbox& inbox, const Endpoint& receiver, int src, int tag, uint32_t epoch,
                   double rate_cap) const {
  return match(inbox, receiver, src, tag, epoch, rate_cap).ready;
}

double Link::resend_seconds(const Endpoint& receiver, int src, size_t bytes,
                            double rate_cap) const {
  return net_->link_retransmit_seconds(bytes, src, receiver.phys_rank(), nranks_, rate_cap) *
         receiver.cost_factor();
}

std::vector<uint8_t> Link::retransmit(Endpoint& receiver, WindowEntry& e, double seconds,
                                      uint8_t job) const {
  ++e.attempts;
  ++receiver.transport().retransmits;
  std::vector<uint8_t> payload = e.pristine;
  apply_payload_faults(payload, *plan_, e.src, receiver.phys_rank(),
                       attempt_counter(e.seq, e.attempts - 1));
  receiver.spend(seconds,
                 {.seq = e.seq, .bytes = payload.size(), .peer = e.src, .tag = e.tag,
                  .kind = trace::EventKind::kRetransmit, .aux = trace::kAuxRetransmit},
                 job);
  return payload;
}

std::optional<Delivery> Link::take(Inbox& inbox, Endpoint& receiver, LinkState& me, int src,
                                   int tag, uint32_t epoch, uint8_t job, std::span<uint8_t> into,
                                   double rate_cap) const {
  const Match m = match(inbox, receiver, src, tag, epoch, rate_cap);
  if (m.frame == Match::kNone && m.lost == Match::kNone) return std::nullopt;
  const double ready = m.ready;

  // Recover the pristine payload of window entry `e` after a NACK; the
  // retransmission starts at `ready`.
  const auto recover = [&](WindowEntry& e) {
    std::vector<uint8_t> payload = retransmit(
        receiver, e,
        ready + resend_seconds(receiver, src, frame_size(e.pristine.size()), rate_cap) -
            receiver.now(),
        job);
    me.accepted.insert({src, e.seq});
    ++receiver.transport().frames_accepted;
    consume(inbox, src, tag, e.seq);
    return Delivery{std::move(payload), 0};
  };

  if (m.frame == Match::kNone) {
    ++receiver.transport().timeout_waits;
    return recover(inbox.window[m.lost]);
  }

  const auto it = inbox.messages.begin() + static_cast<ptrdiff_t>(m.frame);
  WireMessage msg = std::move(*it);
  inbox.messages.erase(it);
  const FrameView frame = decode_frame(msg.frame, into);
  if (frame.valid) {
    me.accepted.insert({src, frame.seq});
    receiver.accept({src, msg.tag, msg.seq, frame.payload.size(), msg.send_vtime}, ready, job);
    if (plan_->enabled()) consume(inbox, src, tag, msg.seq);
    return Delivery{std::move(msg.frame), sizeof(FrameHeader), frame.landed};
  }

  // The CRC/length validation rejected the frame: pay for having received
  // the damaged bytes, then NACK for a retransmission, whose payload
  // overwrites whatever the check left in `into`.
  ++receiver.transport().corrupt_frames;
  const auto wit =
      std::find_if(inbox.window.begin(), inbox.window.end(), [&](const WindowEntry& w) {
        return w.src == src && w.seq == msg.seq && !w.consumed;
      });
  if (wit == inbox.window.end()) {
    throw hzccl::Error("simmpi: corrupt frame with no in-flight window entry");
  }
  return recover(*wit);
}

std::vector<uint8_t> Link::refetch(Inbox& inbox, Endpoint& receiver, int src, int tag,
                                   uint32_t epoch, Refetch mode, size_t raw_bytes_hint, uint8_t job,
                                   double rate_cap) const {
  if (!plan_->enabled()) {
    throw hzccl::Error("refetch: the in-flight window is only kept under a FaultPlan");
  }
  // The most recently consumed message on this (src, tag) flow is the one
  // the caller just failed to decode.
  WindowEntry* entry = nullptr;
  for (WindowEntry& w : inbox.window) {
    if (w.src == src && w.tag == tag && w.consumed && w.epoch == epoch &&
        (!entry || w.seq > entry->seq)) {
      entry = &w;
    }
  }
  if (!entry) {
    throw hzccl::Error("refetch: no consumed message from rank " + std::to_string(src) +
                       " tag " + std::to_string(tag) + " in the in-flight window");
  }

  if (mode == Refetch::kRetransmit) {
    return retransmit(receiver, *entry,
                      resend_seconds(receiver, src, frame_size(entry->pristine.size()), rate_cap),
                      job);
  }

  // Raw fallback: the sender re-reads its intact source copy and ships the
  // uncompressed block, priced at the raw size.  The data path returns the
  // pristine payload; the caller models the sender-side decode.
  ++receiver.transport().raw_fallbacks;
  const size_t raw_bytes = raw_bytes_hint != 0 ? raw_bytes_hint : entry->pristine.size();
  receiver.spend(resend_seconds(receiver, src, raw_bytes, rate_cap),
                 {.seq = entry->seq, .bytes = entry->pristine.size(), .peer = src, .tag = tag,
                  .kind = trace::EventKind::kRetransmit, .aux = trace::kAuxRawFallback},
                 job);
  return entry->pristine;
}

}  // namespace hzccl::simmpi
