// The link layer, shared by both executors: one implementation of the wire
// that simmpi::Runtime drives from its rank threads under its mailbox locks
// and sched::Engine from its event loop.  It frames every payload with a
// length + CRC-32C header, applies the sender-side payload faults (mangle,
// sdc), rolls the drop/corrupt/duplicate/reorder dice, holds reordered
// frames back, rolls the stall die, keeps the in-flight window of pristine
// payloads, discards duplicates and stale-epoch frames, heals a missing or
// corrupt frame with a virtual-clock timeout + NACK/retransmit, serves the
// raw-fallback refetch, and purges a failed attempt's frames after a shrink.
// Every step is charged, traced and counted through the rank's Endpoint
// (endpoint.hpp).
//
// Single-threaded: the caller owns the state each call touches.  An Inbox is
// a receiving rank's side of the wire (the runtime guards it with that
// rank's mailbox mutex); a LinkState is one rank's own link state (touched
// only by that rank's thread, or by the engine's loop).
//
// Determinism: every fault decision is a counter-based hash of the link and
// sequence number (faults.hpp), and every recovery decision depends only on
// a frame's *final* wire outcome: a dropped frame is recovered from the
// window after the receiver's timeout; a held frame is released behind the
// sender's next frame to the same rank, or at its next receive, its return
// or its hang (delivered), or its crash (dropped).  The collectives tag
// every message on a link uniquely within an attempt, so which frame a
// receive takes never depends on when it looks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "hzccl/simmpi/endpoint.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/netmodel.hpp"

namespace hzccl::simmpi {

/// One framed message on the (simulated) wire.
struct WireMessage {
  int src = 0;                 ///< physical sender rank
  int tag = 0;
  uint64_t seq = 0;            ///< per-link sequence number (metadata mirror)
  uint32_t epoch = 0;          ///< sender's group epoch (metadata mirror)
  std::vector<uint8_t> frame;  ///< framed bytes, possibly corrupted in flight
  double send_vtime = 0.0;
};

/// A validated payload, still in the buffer it arrived in: payload() is
/// bytes[offset, end).  A frame off the wire keeps its header in front
/// (offset = sizeof(FrameHeader)); a payload rebuilt from the in-flight
/// window has none (offset 0).
struct Delivery {
  std::vector<uint8_t> bytes;
  size_t offset = 0;
  /// Link::take already checked the payload into the receive buffer.
  bool landed = false;
  std::span<const uint8_t> payload() const {
    return std::span<const uint8_t>(bytes).subspan(offset);
  }
  /// The payload as its own vector: slid over the header, the one copy
  /// out, with no second allocation.
  std::vector<uint8_t> take_payload() &&;
  /// Put the payload in the receive buffer `out`, which must be exactly
  /// its size: a copy, unless it already landed there.
  void copy_to(std::span<uint8_t> out) const;
};

/// What a refetch of the last consumed message returns.
enum class Refetch {
  kRetransmit,   ///< the sender's wire copy again (mangle re-rolls, so a
                 ///< persistently corrupting sender stays corrupt)
  kRawFallback,  ///< the sender's pristine source bytes — the "send me the
                 ///< raw block" degradation path for persistent decode
                 ///< failures; `raw_bytes_hint` prices the raw transfer
};

/// Final wire fate of a transmission.  Delivered frames (corrupt or not)
/// sit in the destination's inbox; dropped ones exist only in the window
/// until the receiver times out and NACKs; held ones wait in the sender's
/// LinkState until released (delivered) or abandoned by a crash (dropped).
enum class WireOutcome { kDelivered, kDropped, kHeld };

/// Sender-side in-flight window entry: the pristine payload is retained
/// until the receiver accepts it (implicit ack), backing the
/// NACK/retransmit and raw-fallback paths.  Kept in the *destination's*
/// inbox, so receiver-side recovery reads one structure.
struct WindowEntry {
  int src = 0;
  int tag = 0;
  uint64_t seq = 0;
  uint32_t epoch = 0;             ///< sender's group epoch at transmission
  std::vector<uint8_t> pristine;  ///< payload before mangling and framing
  double send_vtime = 0.0;
  WireOutcome outcome = WireOutcome::kDelivered;
  bool consumed = false;
  uint64_t attempts = 1;  ///< transmissions so far (mangle re-rolls per attempt)
};

/// A receiving rank's side of the wire: the frames delivered to it, oldest
/// first, and the window entries of the frames sent to it.  The window is
/// empty unless the plan has link faults.
struct Inbox {
  std::deque<WireMessage> messages;
  std::deque<WindowEntry> window;

  /// After a shrink into `epoch`: drop the failed attempt's frames and
  /// window entries; returns how many frames were dropped.
  size_t purge(uint32_t epoch);
};

/// One rank's own link state.
struct LinkState {
  /// Frames the reorder die held back, at most one per physical destination.
  std::map<int, WireMessage> held;
  /// (physical source, seq) of every frame this rank accepted.
  std::set<std::pair<int, uint64_t>> accepted;
};

/// A frame on its way out, its wire fate decided.
struct Transmission {
  WireMessage msg;
  WireOutcome outcome = WireOutcome::kDelivered;
  bool duplicated = false;
  std::vector<uint8_t> pristine;  ///< the window's copy; empty on a clean plan
};

/// The link layer of one job: its fault plan and fabric, and its rank
/// count for pricing.  Holds no state of its own.
class Link {
 public:
  static constexpr double kNoCap = std::numeric_limits<double>::infinity();

  Link(const FaultPlan& plan, const NetModel& net, int nranks)
      : plan_(&plan), net_(&net), nranks_(nranks) {}

  /// Roll `ep`'s stall die around one transport operation (`kind` is
  /// kStallSend or kStallRecv).
  void stall(Endpoint& ep, FaultKind kind, uint8_t job) const;

  /// Frame `payload` as `sender`'s frame `seq` to physical rank `dst`:
  /// one allocation and one pass that copies the payload in and folds its
  /// CRC, then the sender-side payload faults, the seal and the wire dice.
  /// Touches no inbox, so the runtime builds it outside any lock.
  [[nodiscard]] Transmission frame(Endpoint& sender, const LinkState& me, int dst, int tag,
                                   uint64_t seq, uint32_t epoch,
                                   std::span<const uint8_t> payload) const;

  /// Put `t` on the wire to `dst`, whose inbox is `inbox`: its window
  /// entry, then the frame (twice when duplicated) unless it was dropped
  /// or held.  A posted frame releases the frame `me` held for `dst`
  /// behind it: the observable reordering.
  void send(Inbox& inbox, LinkState& me, int dst, Transmission t) const;

  /// Settle the frame `me` holds for `dst`, if any: its window entry flips
  /// from held to `outcome`, and a delivered frame is posted.
  static void release(Inbox& inbox, LinkState& me, int dst, WireOutcome outcome);

  /// Drop, from `inbox`, duplicates of frames `receiver` already accepted
  /// from `src`, and (under rank faults) `src`'s frames of an epoch older
  /// than `epoch`, charging one latency for each.
  void discard(Inbox& inbox, Endpoint& receiver, LinkState& me, int src, uint32_t epoch,
               uint8_t job) const;

  /// When a receive of (`src`, `tag`) under `epoch` can complete: at the
  /// transfer of the first matching frame on the wire, or at the timeout
  /// of a dropped one; +infinity when neither is on hand.
  [[nodiscard]] double ready(const Inbox& inbox, const Endpoint& receiver, int src, int tag,
                             uint32_t epoch, double rate_cap = kNoCap) const;

  /// Complete that receive, if ready() is finite: accept the first
  /// matching frame, or NACK a corrupt one or time out on a dropped one
  /// and retransmit it from the window.  Every transfer, resends included,
  /// moves at no more than `rate_cap` bytes/second.  A receive into a
  /// caller's buffer passes it as `into`: a frame whose payload has its
  /// size is checked straight into it (decode_frame), and the delivery
  /// says it landed.
  [[nodiscard]] std::optional<Delivery> take(Inbox& inbox, Endpoint& receiver, LinkState& me,
                                             int src, int tag, uint32_t epoch, uint8_t job,
                                             std::span<uint8_t> into = {},
                                             double rate_cap = kNoCap) const;

  /// NACK the last message `receiver` consumed on (`src`, `tag`) and fetch
  /// it again from the window, charged to its clock.
  [[nodiscard]] std::vector<uint8_t> refetch(Inbox& inbox, Endpoint& receiver, int src, int tag,
                                             uint32_t epoch, Refetch mode, size_t raw_bytes_hint,
                                             uint8_t job, double rate_cap = kNoCap) const;

 private:
  /// Where a receive of (src, tag) stands: the index of the first frame on
  /// the wire matching it, or else of the lowest dropped, unconsumed window
  /// entry of its epoch on that flow, and when the receive completes on it.
  struct Match {
    static constexpr size_t kNone = std::numeric_limits<size_t>::max();
    size_t frame = kNone;  ///< into Inbox::messages
    size_t lost = kNone;   ///< into Inbox::window
    double ready = std::numeric_limits<double>::infinity();
  };
  Match match(const Inbox& inbox, const Endpoint& receiver, int src, int tag, uint32_t epoch,
              double rate_cap) const;

  /// Re-send window entry `e` to `receiver` after a NACK: one more
  /// attempt, charged as `seconds` of retransmit, carrying the pristine
  /// payload with the sender-side faults re-rolled for that attempt.
  std::vector<uint8_t> retransmit(Endpoint& receiver, WindowEntry& e, double seconds,
                                  uint8_t job) const;

  /// Clock cost of re-sending `bytes` from `src` to `receiver`.
  double resend_seconds(const Endpoint& receiver, int src, size_t bytes, double rate_cap) const;

  const FaultPlan* plan_;
  const NetModel* net_;
  int nranks_;
};

}  // namespace hzccl::simmpi
