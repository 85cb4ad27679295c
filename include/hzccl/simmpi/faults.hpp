// Deterministic fault injection for the simmpi transport.
//
// The paper's collectives ran on 512 real nodes where links drop, reorder
// and corrupt packets; a perfect simulated network never exercises any of
// the recovery machinery.  A FaultPlan gives every link seeded, replayable
// misbehavior:
//
//   * drop       — the frame vanishes on the wire
//   * duplicate  — the frame is delivered twice
//   * reorder    — the frame is held back behind the next frame on its link
//   * corrupt    — one bit of the framed bytes is flipped in flight
//   * mangle     — the payload is scribbled *before* framing (models
//                  sender-side memory/encoder corruption that a wire CRC
//                  cannot catch; surfaces as a decode failure downstream).
//                  The scribble hits the payload head (so decode always
//                  fails detectably) plus a seeded offset over the whole
//                  payload, so tail blocks are corrupted as often as heads
//   * sdc        — one seeded *payload* bit flips before framing: the CRC
//                  is computed over the flipped bytes, so the frame checks
//                  out and the stream usually still parses — silent data
//                  corruption only the ABFT digests can see
//   * poison     — one lane of a homomorphic combine is sign-flipped on the
//                  compute side (hzccl/integrity/sdc.hpp): corruption that
//                  never crosses a link at all
//   * stall      — a rank pauses around one transport operation
//
// Every decision is a pure function of (seed, fault kind, link, sequence
// number) through a counter-based hash — no sequential generator state — so
// a run replays *exactly* from its seed no matter how the rank threads are
// scheduled.  The transport hardens itself against the plan: payloads are
// framed with a length + CRC-32C header, receivers time out on the virtual
// clock and NACK for a retransmit (the link layer, link.hpp, keeps the
// sender's pristine copy in an in-flight window until it is acked), and all
// recovery traffic is charged to the cost model so degraded runs still
// produce meaningful virtual times.  Both executors run that one link
// layer.  Per-rank counters land in hzccl::TransportStats.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hzccl/util/crc32.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::simmpi {

/// The coordinates of one fault decision (see fault_roll).
enum class FaultKind : uint64_t {
  kDrop = 1,
  kDuplicate = 2,
  kReorder = 3,
  kCorrupt = 4,
  kCorruptBit = 5,  ///< which bit of the frame the corruption flips
  kMangle = 6,
  kStallSend = 7,
  kStallRecv = 8,
  kMangleOffset = 9,  ///< where in the payload the mangle's second scribble lands
  kSdc = 10,
  kSdcBit = 11,  ///< which payload bit the silent corruption flips
};

/// Strong stateless 64-bit mix (splitmix64 finalizer chain).
uint64_t fault_mix(uint64_t seed, uint64_t stream, uint64_t counter);

/// Uniform double in [0, 1) as a pure function of its coordinates — the
/// counter-based PRNG behind every fault decision.
double fault_roll(uint64_t seed, FaultKind kind, int src, int dst, uint64_t counter);

// ---------------------------------------------------------------------------
// Rank-level failures.  Links misbehave per frame; *ranks* fail per process:
// they crash (stop responding, in-flight frames lost), hang (stop responding
// mid-collective but their already-queued frames still drain), or straggle
// (every local virtual cost is multiplied by a factor).  Schedules are part
// of the FaultPlan so a failing run replays exactly from its seed.
// ---------------------------------------------------------------------------

enum class RankFaultKind : uint8_t {
  /// Stops at the trigger; frames parked in its NIC are abandoned and must
  /// be recovered by receiver timeout/NACK from the in-flight window.
  kCrash = 0,
  /// Stops at the trigger but stays attached: its queued frames drain
  /// normally before the death is visible.
  kHang = 1,
  /// Stays alive; all its local virtual costs scale by `factor`.
  kStraggler = 2,
};

/// One scheduled rank failure.  `rank` is a *physical* rank; -1 picks one
/// deterministically from the plan seed at runtime.  Crash/hang fire at the
/// first trigger reached: before the rank's `after_ops`-th transport
/// operation (1-based; send/recv/barrier each count as one), or once its
/// virtual clock reaches `at_vtime`.  If neither trigger is set, a crash
/// point is derived from the seed.  `factor` only applies to stragglers.
struct RankFault {
  RankFaultKind kind = RankFaultKind::kCrash;
  int rank = -1;
  uint64_t after_ops = 0;
  double at_vtime = 0.0;
  double factor = 4.0;

  /// Parse one schedule entry: "crash@rank=2,op=7", "hang@rank=1,t=2.5e-4",
  /// "straggler@rank=3,x=8", or a bare kind ("crash") for seed-derived
  /// placement.
  static RankFault parse(const std::string& entry);

  /// True when this crash/hang fires at its rank's `ops`-th transport
  /// operation with the rank's virtual clock at `now`.
  bool due(uint64_t ops, double now) const {
    return (after_ops > 0 && ops >= after_ops) || (at_vtime > 0.0 && now >= at_vtime);
  }
};

/// What a resolved schedule holds for one rank: its first straggler entry
/// sets the cost factor, its first crash or hang is the stop fault.
struct RankFaultSlot {
  double cost_factor = 1.0;
  bool straggler = false;
  const RankFault* stop = nullptr;  ///< points into the resolved schedule
};

/// The slot of `rank` in a schedule from FaultPlan::resolve_rank_faults.
RankFaultSlot rank_fault_slot(std::span<const RankFault> resolved, int rank);

/// Per-link fault probabilities plus the recovery-timing knobs.  All
/// probabilities are per frame; 0 everywhere (the default) is a perfect
/// network and disables the in-flight window entirely.
struct FaultPlan {
  uint64_t seed = 0;
  double drop = 0.0;
  double corrupt = 0.0;
  double reorder = 0.0;
  double duplicate = 0.0;
  double stall = 0.0;
  double mangle = 0.0;
  /// Silent data corruption: per-frame probability that one seeded payload
  /// bit flips *before* the CRC is computed.  Invisible to the wire layer;
  /// detected (and recovered via retransmit) only when the collective runs
  /// with a digest verify policy.  Retransmits re-roll, like mangle.
  double sdc = 0.0;
  /// Poisoned combine: per-block probability that a rank's homomorphic
  /// combine sign-flips one output lane (compute-side SDC; nothing crosses
  /// the wire).  Recovery is recompute-from-inputs, not retransmit.
  double poison = 0.0;

  /// Virtual seconds a stalled rank loses around one transport operation.
  double stall_seconds = 50e-6;
  /// Virtual-clock patience of Comm::recv before it NACKs a missing frame.
  double recv_timeout_s = 200e-6;
  /// Additional virtual-clock patience after a peer turns Suspect before it
  /// is declared Dead (the Alive → Suspect → Dead health machine).
  double fail_timeout_s = 400e-6;

  /// Scheduled rank failures (crash/hang/straggler); empty = all healthy.
  std::vector<RankFault> rank_faults;

  /// True when any *link* fault can fire (this is what arms the in-flight
  /// window and the retransmit machinery).
  bool enabled() const {
    return drop > 0.0 || corrupt > 0.0 || reorder > 0.0 || duplicate > 0.0 ||
           stall > 0.0 || mangle > 0.0 || sdc > 0.0;
  }

  /// True when any *silent* fault can fire — corruption the transport layer
  /// cannot detect on its own (this is what a digest verify policy exists
  /// to catch).
  bool silent_faults_enabled() const { return sdc > 0.0 || poison > 0.0; }

  /// True when any rank-level failure is scheduled (this is what arms the
  /// health state machine, agreement and epochs in the runtime).
  bool rank_faults_enabled() const { return !rank_faults.empty(); }

  /// Perfect network (all probabilities zero).
  static FaultPlan none() { return FaultPlan{}; }

  /// Parse the hzcclc flag syntax "seed,drop[,corrupt[,reorder[,dup[,stall
  /// [,mangle[,stall_s[,recv_timeout[,sdc[,poison]]]]]]]]]".
  static FaultPlan parse(const std::string& spec);

  /// Parse the hzcclc --rank-faults syntax: ';'-separated RankFault entries.
  static std::vector<RankFault> parse_rank_faults(const std::string& spec);

  /// rank_faults placed on `nranks` ranks, identically by both executors:
  /// rank -1 becomes a seed-derived rank, and a crash or hang with neither
  /// trigger set gets a seed-derived after_ops in 1..24.  Throws Error when
  /// a rank falls outside [0, nranks).
  std::vector<RankFault> resolve_rank_faults(int nranks) const;

  /// Throw ParseError unless every probability is in [0,1], every timing is
  /// > 0 and every rank-fault entry is well formed.  parse() validates; a
  /// plan assembled field-by-field should call this before use.
  void validate() const;

  /// One-line human summary ("seed=42 drop=0.05 corrupt=0.02 ...").
  std::string describe() const;
};

// ---------------------------------------------------------------------------
// Failure agreement surface: the typed error every survivor throws, and the
// collective-level retry knobs.
// ---------------------------------------------------------------------------

/// Thrown by every survivor of a failed agreement round: the runtime
/// guarantees each survivor of epoch `epoch` observes the *same* sorted
/// `failed_ranks` set (physical ranks), ULFM-style — no hangs, no
/// split-brain.  Recoverable via Comm::shrink() + retry.
class RankFailedError : public hzccl::Error {
 public:
  RankFailedError(std::vector<int> failed_ranks, uint32_t epoch);
  const std::vector<int>& failed_ranks() const { return failed_ranks_; }
  uint32_t epoch() const { return epoch_; }

 private:
  std::vector<int> failed_ranks_;
  uint32_t epoch_ = 0;
};

/// How a collective reacts to a RankFailedError: up to `max_attempts` runs,
/// shrinking to the survivors and charging `backoff_base_s * factor^attempt`
/// of virtual time between attempts.  The default (1 attempt) propagates the
/// error unchanged.
struct RetryPolicy {
  int max_attempts = 1;
  double backoff_base_s = 100e-6;
  double backoff_factor = 2.0;
  /// Jitter fraction in [0, 1): each backoff is scaled by a seeded factor
  /// in [1 - jitter, 1 + jitter) so retrying ranks don't re-collide in
  /// lockstep.  The draw is a pure function of (seed, attempt) through the
  /// same counter-based mix as the FaultPlan, so replays stay exact.
  double jitter = 0.0;

  bool enabled() const { return max_attempts > 1; }
  /// Virtual seconds charged before re-running attempt `attempt` (1-based
  /// count of failures so far).  `seed` feeds the jitter draw; callers with
  /// a FaultPlan should pass its seed so the whole run replays from one
  /// number.
  double backoff_for(int attempt, uint64_t seed = 0) const;

  /// Parse the hzcclc flag syntax "attempts[,backoff_base[,factor[,jitter]]]".
  static RetryPolicy parse(const std::string& spec);
  void validate() const;
  std::string describe() const;
};

// ---------------------------------------------------------------------------
// Wire framing: every payload travels as [FrameHeader][payload] so receivers
// can detect truncation and in-flight corruption.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kFrameMagic = 0x485A4652;  // "HZFR"

#pragma pack(push, 1)
struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint32_t seq_lo = 0;       ///< per-link sequence number, low half
  uint32_t seq_hi = 0;       ///< per-link sequence number, high half
  uint32_t payload_len = 0;  ///< bytes following this header
  uint32_t payload_crc = 0;  ///< CRC-32C of the payload
  uint32_t header_crc = 0;   ///< CRC-32C of the preceding 20 header bytes
};
#pragma pack(pop)
static_assert(sizeof(FrameHeader) == 24, "wire frame header must be 24 bytes");

/// Total wire size of a frame carrying `payload_bytes` of payload.
constexpr size_t frame_size(size_t payload_bytes) {
  return sizeof(FrameHeader) + payload_bytes;
}

/// Payload bytes per tile of a frame's one pass: framing and checking fold
/// each tile into the payload CRC and copy it while it sits in cache, so
/// each payload byte is read once and written once on either side.
inline constexpr size_t kFrameTile = 8192;

/// The CRC-32C of `payload`, folded one kFrameTile tile at a time, each
/// tile handed to `copy` (a callable taking the tile's offset and bytes)
/// right after its fold.
template <class CopyTile>
uint32_t crc32c_tiles(std::span<const uint8_t> payload, CopyTile&& copy) {
  uint32_t crc = 0;
  for (size_t at = 0; at < payload.size(); at += kFrameTile) {
    const std::span<const uint8_t> tile =
        payload.subspan(at, std::min(kFrameTile, payload.size() - at));
    crc = crc32c(tile, crc);
    copy(at, tile);
  }
  return crc;
}

/// Frame `payload` into `out`, whose size must be exactly
/// frame_size(payload.size()): copy the payload behind the header, folding
/// its CRC in the same pass, then seal_frame.  Never allocates.
void encode_frame_into(uint64_t seq, std::span<const uint8_t> payload, std::span<uint8_t> out);

/// Seal a frame whose payload is already in place at
/// frame[sizeof(FrameHeader), end) and whose CRC-32C is `payload_crc`:
/// write the header carrying `seq`, the payload length, `payload_crc` and
/// the header's own CRC over the first sizeof(FrameHeader) bytes.  The
/// transmit path (Link::frame) folds the CRC while it copies the payload
/// in, so a clean frame costs one pass over the payload.
void seal_frame(uint64_t seq, std::span<uint8_t> frame, uint32_t payload_crc);

/// Result of validating a framed message.
struct FrameView {
  bool valid = false;                 ///< magic, lengths and both CRCs check out
  bool landed = false;                ///< valid, and the payload is in decode_frame's `out`
  uint64_t seq = 0;                   ///< meaningful only when valid
  std::span<const uint8_t> payload;   ///< meaningful only when valid
};

/// Validate a framed message; never throws — corruption yields !valid.
/// Given an `out` of exactly the payload's size, the check also lands the
/// payload there in the same pass: the header is checked first, then the
/// payload CRC tile by tile, each tile copied into `out` right after its
/// fold.  A frame that fails the payload CRC leaves its damaged bytes in
/// `out`; any other `out` is left alone.
[[nodiscard]] FrameView decode_frame(std::span<const uint8_t> frame,
                                     std::span<uint8_t> out = {});

}  // namespace hzccl::simmpi
