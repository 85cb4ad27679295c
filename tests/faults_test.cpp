// Chaos tier: seeded fault injection against every collective stack.
//
// Three layers of coverage:
//   1. Unit: FaultPlan parsing, the counter-based PRNG, wire framing.
//   2. Transport: each fault kind in isolation against raw sends — the
//      healing machinery (timeout/NACK/retransmit, duplicate discard,
//      reorder release) restores intact delivery and counts its work.
//   3. Chaos sweeps: every collective (raw, DOC, hZCCL; reduce-scatter,
//      allreduce, bcast) under a mixed seeded plan at P ∈ {4, 8, 16} must
//      match its fault-free result, and replay byte-identically from the
//      same seed — virtual times and counters included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hzccl/collectives/movement.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/sched/engine.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/link.hpp"

namespace hzccl {
namespace {

using coll::CollectiveConfig;
using coll::ring_block_range;
using simmpi::Comm;
using simmpi::decode_frame;
using simmpi::encode_frame_into;
using simmpi::fault_roll;
using simmpi::FaultKind;
using simmpi::FaultPlan;
using simmpi::FrameView;
using simmpi::NetModel;
using simmpi::Runtime;
using simmpi::seal_frame;

// ---------------------------------------------------------------------------
// 1. Unit: plan parsing, PRNG, framing
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesTheFlagSyntax) {
  const FaultPlan p = FaultPlan::parse("42,0.05,0.02,0.1,0.04,0.3");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.drop, 0.05);
  EXPECT_DOUBLE_EQ(p.corrupt, 0.02);
  EXPECT_DOUBLE_EQ(p.reorder, 0.1);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.04);
  EXPECT_DOUBLE_EQ(p.stall, 0.3);
  EXPECT_TRUE(p.enabled());

  const FaultPlan short_form = FaultPlan::parse("7,0.5");
  EXPECT_EQ(short_form.seed, 7u);
  EXPECT_DOUBLE_EQ(short_form.drop, 0.5);
  EXPECT_DOUBLE_EQ(short_form.corrupt, 0.0);
}

TEST(FaultPlan, ParsesTheExtendedKnobs) {
  // Fields 7-9: mangle probability, stall_seconds and recv_timeout overrides.
  const FaultPlan p = FaultPlan::parse("42,0.05,0.02,0.1,0.04,0.3,0.01,75e-6,300e-6");
  EXPECT_DOUBLE_EQ(p.mangle, 0.01);
  EXPECT_DOUBLE_EQ(p.stall_seconds, 75e-6);
  EXPECT_DOUBLE_EQ(p.recv_timeout_s, 300e-6);

  // Omitted trailing fields keep their defaults.
  const FaultPlan d = FaultPlan::parse("42,0.05,0,0,0,0,0.25");
  EXPECT_DOUBLE_EQ(d.mangle, 0.25);
  EXPECT_DOUBLE_EQ(d.stall_seconds, FaultPlan{}.stall_seconds);
  EXPECT_DOUBLE_EQ(d.recv_timeout_s, FaultPlan{}.recv_timeout_s);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse(""), Error);
  EXPECT_THROW(FaultPlan::parse("abc,0.1"), Error);
  EXPECT_THROW(FaultPlan::parse("1,1.5"), Error);   // probability > 1
  EXPECT_THROW(FaultPlan::parse("1,-0.1"), Error);  // probability < 0
  EXPECT_THROW(FaultPlan::parse("1,0.2,0,0,0,0,1.5"), Error);   // mangle > 1
  EXPECT_THROW(FaultPlan::parse("1,0.2,0,0,0,0,0,-1e-6"), Error);  // stall_s <= 0
  EXPECT_THROW(FaultPlan::parse("1,0.2,0,0,0,0,0,50e-6,0"), Error);  // timeout <= 0
  EXPECT_THROW(FaultPlan::parse("1,0,0,0,0,0,0,50e-6,1e-4,9"), Error);  // too many
}

TEST(FaultPlan, ValidateCatchesFieldsSetProgrammatically) {
  FaultPlan p;
  p.drop = 0.1;
  EXPECT_NO_THROW(p.validate());
  p.recv_timeout_s = -1.0;
  EXPECT_THROW(p.validate(), Error);
  p.recv_timeout_s = 200e-6;
  p.mangle = -0.5;
  EXPECT_THROW(p.validate(), Error);
  p.mangle = 0.0;
  p.fail_timeout_s = 0.0;
  EXPECT_THROW(p.validate(), Error);
}

TEST(FaultPlan, TheRuntimeValidatesEveryPlanItIsGiven) {
  // A plan assembled field by field never went through parse().  With a
  // negative timeout every timeout wait would be free (a clock never runs
  // backwards), and a drop probability above 1 is no probability: the
  // threaded runtime rejects both at construction, rank faults or not.
  FaultPlan negative_timeout;
  negative_timeout.drop = 0.5;
  negative_timeout.recv_timeout_s = -1.0;
  FaultPlan over_one;
  over_one.drop = 1.5;
  for (const FaultPlan& plan : {negative_timeout, over_one}) {
    EXPECT_THROW((Runtime{4, NetModel::omnipath_100g(), plan}), Error) << plan.describe();
    JobConfig config;
    config.nranks = 4;
    config.faults = plan;
    const RankInputFn input = [](int rank) {
      return std::vector<float>(256, static_cast<float>(rank + 1));
    };
    EXPECT_THROW((void)run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, input),
                 Error)
        << plan.describe();
  }
}

TEST(RankFault, ParsesScheduleEntries) {
  using simmpi::RankFault;
  using simmpi::RankFaultKind;

  const auto crash = RankFault::parse("crash@rank=2,op=7");
  EXPECT_EQ(crash.kind, RankFaultKind::kCrash);
  EXPECT_EQ(crash.rank, 2);
  EXPECT_EQ(crash.after_ops, 7u);

  const auto hang = RankFault::parse("hang@rank=1,t=2.5e-4");
  EXPECT_EQ(hang.kind, RankFaultKind::kHang);
  EXPECT_DOUBLE_EQ(hang.at_vtime, 2.5e-4);

  const auto strag = RankFault::parse("straggler@rank=3,x=8");
  EXPECT_EQ(strag.kind, RankFaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(strag.factor, 8.0);

  // Bare kind: rank and trigger derived from the plan seed at runtime.
  const auto seeded = RankFault::parse("crash");
  EXPECT_EQ(seeded.rank, -1);
  EXPECT_EQ(seeded.after_ops, 0u);

  const auto list = FaultPlan::parse_rank_faults("crash@rank=0,op=3;straggler@rank=1,x=2");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[1].kind, RankFaultKind::kStraggler);

  EXPECT_THROW(RankFault::parse("explode@rank=1"), Error);
  EXPECT_THROW(RankFault::parse("crash@bogus=1"), Error);
  EXPECT_THROW(FaultPlan::parse_rank_faults(""), Error);

  FaultPlan p;
  p.rank_faults.push_back(RankFault::parse("straggler@rank=0,x=4"));
  EXPECT_TRUE(p.rank_faults_enabled());
  EXPECT_NO_THROW(p.validate());
  p.rank_faults[0].factor = -2.0;
  EXPECT_THROW(p.validate(), Error);
}

TEST(RankFault, ResolvesSeedDerivedPlacementForBothExecutors) {
  using simmpi::RankFault;
  FaultPlan plan;
  plan.seed = 42;
  plan.rank_faults = FaultPlan::parse_rank_faults(
      "crash;straggler@rank=1,x=3;straggler@rank=1,x=9;hang@rank=1,t=1e-3;crash@rank=1,op=2");
  const std::vector<RankFault> resolved = plan.resolve_rank_faults(5);
  ASSERT_EQ(resolved.size(), plan.rank_faults.size());
  // The bare crash gets a seeded rank in range and a crash point in 1..24.
  EXPECT_GE(resolved[0].rank, 0);
  EXPECT_LT(resolved[0].rank, 5);
  EXPECT_GE(resolved[0].after_ops, 1u);
  EXPECT_LE(resolved[0].after_ops, 24u);
  // Explicit triggers stay as written; the placement replays from the seed.
  EXPECT_EQ(resolved[3].after_ops, 0u);
  EXPECT_EQ(resolved[4].after_ops, 2u);
  EXPECT_EQ(plan.resolve_rank_faults(5)[0].after_ops, resolved[0].after_ops);

  // Rank 1's first straggler sets its factor; its first crash or hang stops it.
  const simmpi::RankFaultSlot slot = simmpi::rank_fault_slot(resolved, 1);
  EXPECT_TRUE(slot.straggler);
  EXPECT_DOUBLE_EQ(slot.cost_factor, 3.0);
  ASSERT_EQ(slot.stop, &resolved[3]);
  EXPECT_FALSE(slot.stop->due(1000, 0.5e-3));
  EXPECT_TRUE(slot.stop->due(0, 1e-3));
  EXPECT_TRUE(resolved[4].due(2, 0.0));
  EXPECT_FALSE(resolved[4].due(1, 0.0));

  plan.rank_faults = FaultPlan::parse_rank_faults("crash@rank=5");
  EXPECT_THROW((void)plan.resolve_rank_faults(5), Error);
}

TEST(RetryPolicy, ParsesAndComputesBackoff) {
  using simmpi::RetryPolicy;
  const RetryPolicy r = RetryPolicy::parse("3,50e-6,2");
  EXPECT_EQ(r.max_attempts, 3);
  EXPECT_TRUE(r.enabled());
  EXPECT_DOUBLE_EQ(r.backoff_for(1), 50e-6);
  EXPECT_DOUBLE_EQ(r.backoff_for(2), 100e-6);
  EXPECT_DOUBLE_EQ(r.backoff_for(3), 200e-6);

  EXPECT_FALSE(RetryPolicy{}.enabled());
  EXPECT_THROW(RetryPolicy::parse("0"), Error);
  EXPECT_THROW(RetryPolicy::parse("2,-1"), Error);
  EXPECT_THROW(RetryPolicy::parse("2,1e-6,0.5"), Error);
}

TEST(FaultPlan, NoneIsDisabled) {
  EXPECT_FALSE(FaultPlan::none().enabled());
  FaultPlan p;
  p.mangle = 0.01;
  EXPECT_TRUE(p.enabled());
}

TEST(FaultRoll, IsAPureFunctionOfItsCoordinates) {
  const double a = fault_roll(42, FaultKind::kDrop, 3, 4, 17);
  EXPECT_DOUBLE_EQ(a, fault_roll(42, FaultKind::kDrop, 3, 4, 17));
  // Any coordinate change decorrelates the roll.
  EXPECT_NE(a, fault_roll(43, FaultKind::kDrop, 3, 4, 17));
  EXPECT_NE(a, fault_roll(42, FaultKind::kCorrupt, 3, 4, 17));
  EXPECT_NE(a, fault_roll(42, FaultKind::kDrop, 4, 3, 17));
  EXPECT_NE(a, fault_roll(42, FaultKind::kDrop, 3, 4, 18));
}

TEST(FaultRoll, IsUniformEnoughToUseAsAProbability) {
  double sum = 0.0;
  for (uint64_t c = 0; c < 4096; ++c) {
    const double r = fault_roll(9, FaultKind::kDrop, 0, 1, c);
    ASSERT_GE(r, 0.0);
    ASSERT_LT(r, 1.0);
    sum += r;
  }
  EXPECT_NEAR(sum / 4096.0, 0.5, 0.02);
}

/// `payload` framed by encode_frame_into into a buffer of exactly its size.
std::vector<uint8_t> framed(uint64_t seq, std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame(simmpi::frame_size(payload.size()));
  encode_frame_into(seq, payload, frame);
  return frame;
}

TEST(Framing, RoundTripsSequenceAndPayload) {
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 42};
  const uint64_t seq = (uint64_t{7} << 40) | 12345;  // exercises both halves
  const std::vector<uint8_t> frame = framed(seq, payload);
  ASSERT_EQ(frame.size(), payload.size() + sizeof(simmpi::FrameHeader));

  const FrameView view = decode_frame(frame);
  ASSERT_TRUE(view.valid);
  EXPECT_EQ(view.seq, seq);
  EXPECT_EQ(std::vector<uint8_t>(view.payload.begin(), view.payload.end()), payload);

  const std::vector<uint8_t> empty_frame = framed(0, {});
  EXPECT_TRUE(decode_frame(empty_frame).valid);
  EXPECT_TRUE(decode_frame(empty_frame).payload.empty());
}

TEST(Framing, SealingInPlaceMatchesEncodeFrameInto) {
  // The transmit path copies the payload into the frame body, folding its
  // CRC, and seals the header over it; the wire bytes must not depend on
  // which way was taken.
  // 5000 bytes spans a whole three-lane CRC block plus a ragged tail; the
  // last size spans several of encode_frame_into's CRC tiles.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5000}, 3 * simmpi::kFrameTile + 7}) {
    std::vector<uint8_t> payload(n);
    for (size_t i = 0; i < n; ++i) payload[i] = static_cast<uint8_t>(i * 131 + 7);
    const uint64_t seq = (uint64_t{3} << 33) | n;

    std::vector<uint8_t> in_place(simmpi::frame_size(n), 0xEE);  // stale header bytes
    std::copy(payload.begin(), payload.end(), in_place.begin() + sizeof(simmpi::FrameHeader));
    seal_frame(seq, in_place, crc32c(payload));

    EXPECT_EQ(in_place, framed(seq, payload)) << "payload bytes " << n;
    EXPECT_TRUE(decode_frame(in_place).valid);
  }
  std::vector<uint8_t> too_short(sizeof(simmpi::FrameHeader) - 1);
  EXPECT_THROW(seal_frame(0, too_short, 0), Error);
}

TEST(Framing, EverySingleBitFlipIsDetected) {
  const std::vector<uint8_t> payload = {0xAA, 0x55, 0x00, 0xFF, 0x10};
  const std::vector<uint8_t> frame = framed(99, payload);
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = frame;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(decode_frame(damaged).valid) << "bit " << bit;
  }
}

TEST(Framing, TruncationAndGarbageAreDetected) {
  const std::vector<uint8_t> frame = framed(5, std::vector<uint8_t>{9, 8, 7});
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(decode_frame(std::span<const uint8_t>(frame.data(), n)).valid) << n;
  }
  const std::vector<uint8_t> garbage(64, 0x5A);
  EXPECT_FALSE(decode_frame(garbage).valid);
}

// ---------------------------------------------------------------------------
// The one-pass frame path: Link::frame copies the payload in and folds its
// CRC one tile at a time, and a receive into a buffer checks the CRC tile
// by tile, landing each tile right after its check.
// ---------------------------------------------------------------------------

constexpr size_t kTile = simmpi::kFrameTile;

/// `n` payload bytes in which no two tiles are alike.
std::vector<uint8_t> pattern(size_t n, int salt = 0) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + i / kTile * 17 + static_cast<size_t>(salt)) & 0xFF);
  }
  return bytes;
}

/// One link layer between physical ranks 0 and 1 under `plan`, driven by
/// hand: rank 0 frames and sends, rank 1 takes.
struct OneLink {
  explicit OneLink(const FaultPlan& p) : plan(p), link(plan, net, 2) {}
  FaultPlan plan;
  NetModel net = NetModel::omnipath_100g();
  simmpi::Link link;
  simmpi::Endpoint sender{0, 2, net, {}};
  simmpi::Endpoint receiver{1, 2, net, {}};
  simmpi::LinkState sender_state;
  simmpi::LinkState receiver_state;
  simmpi::Inbox inbox;
  uint64_t seq = 0;

  simmpi::Transmission frame(std::span<const uint8_t> payload, int tag) {
    return link.frame(sender, sender_state, 1, tag, seq++, 0, payload);
  }
  void send(simmpi::Transmission t) { link.send(inbox, sender_state, 1, std::move(t)); }
  std::optional<simmpi::Delivery> take(int tag, std::span<uint8_t> into) {
    return link.take(inbox, receiver, receiver_state, 0, tag, 0, trace::kNoJob, into);
  }
};

TEST(OnePassFrame, RoundTripsAtEveryTileBoundary) {
  OneLink w(FaultPlan::none());
  int tag = 0;
  for (const size_t n : {size_t{0}, size_t{1}, kTile - 1, kTile, kTile + 1, 3 * kTile + 7}) {
    SCOPED_TRACE("payload bytes " + std::to_string(n));
    const std::vector<uint8_t> payload = pattern(n);

    // The one pass writes the bytes encode_frame_into writes.
    simmpi::Transmission t = w.frame(payload, tag);
    EXPECT_EQ(t.msg.frame, framed(t.msg.seq, payload));
    w.send(std::move(t));
    // Received into a buffer, the payload lands during the check.
    std::vector<uint8_t> out(n, 0xEE);
    std::optional<simmpi::Delivery> into = w.take(tag++, out);
    ASSERT_TRUE(into.has_value());
    EXPECT_EQ(into->landed, n > 0);
    EXPECT_EQ(out, payload);
    into->copy_to(out);
    EXPECT_EQ(out, payload);

    // recv keeps handing over the frame's own buffer.
    w.send(w.frame(payload, tag));
    std::optional<simmpi::Delivery> own = w.take(tag++, {});
    ASSERT_TRUE(own.has_value());
    EXPECT_FALSE(own->landed);
    EXPECT_EQ(std::move(*own).take_payload(), payload);
  }
  EXPECT_TRUE(w.receiver.transport().clean());
}

TEST(OnePassFrame, SenderSideFaultsAreSealedOver) {
  // mangle and sdc write the frame body after the one pass folded its CRC:
  // the seal must fold the faulted bytes again, so the frame checks out
  // and only the consumer can see the damage.
  for (const bool sdc : {false, true}) {
    SCOPED_TRACE(sdc ? "sdc" : "mangle");
    FaultPlan plan;
    plan.seed = 17;
    (sdc ? plan.sdc : plan.mangle) = 1.0;
    OneLink w(plan);
    int tag = 0;
    for (const size_t n : {size_t{1}, kTile - 1, kTile + 1, 3 * kTile + 7}) {
      SCOPED_TRACE("payload bytes " + std::to_string(n));
      const std::vector<uint8_t> payload = pattern(n, 3);
      simmpi::Transmission t = w.frame(payload, tag);
      const FrameView view = decode_frame(t.msg.frame);
      ASSERT_TRUE(view.valid);
      EXPECT_NE(std::vector<uint8_t>(view.payload.begin(), view.payload.end()), payload);
      EXPECT_EQ(t.pristine, payload);

      // Received into a buffer, the faulted payload lands as it was sealed.
      w.send(std::move(t));
      std::vector<uint8_t> out(n);
      std::optional<simmpi::Delivery> d = w.take(tag++, out);
      ASSERT_TRUE(d.has_value());
      EXPECT_TRUE(d->landed);
      EXPECT_EQ(std::vector<uint8_t>(d->payload().begin(), d->payload().end()), out);
      EXPECT_NE(out, payload);
    }
    EXPECT_EQ(w.sender.transport().faults_injected, 4u);
    EXPECT_EQ(w.receiver.transport().corrupt_frames, 0u);
  }
}

TEST(OnePassFrame, ACorruptFrameHealsIntoTheBuffer) {
  // Every frame has one bit flipped in flight.  Where the flip lands in the
  // payload, the check has already landed the damaged bytes; the
  // retransmit must then rewrite the whole buffer with the pristine ones.
  FaultPlan plan;
  plan.seed = 23;
  plan.corrupt = 1.0;
  OneLink w(plan);
  int payload_hits = 0;
  for (int i = 0; i < 12; ++i) {
    const std::vector<uint8_t> payload = pattern(kTile * static_cast<size_t>(i % 4) + 5, i);
    simmpi::Transmission t = w.frame(payload, i);
    const std::vector<uint8_t> sealed = framed(t.msg.seq, payload);
    const bool header_hit = !std::equal(
        sealed.begin(), sealed.begin() + sizeof(simmpi::FrameHeader), t.msg.frame.begin());
    w.send(std::move(t));
    const std::vector<uint8_t> fill(payload.size(), 0xEE);
    std::vector<uint8_t> out = fill;
    std::optional<simmpi::Delivery> d = w.take(i, out);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->landed) << "message " << i;
    if (header_hit) {
      EXPECT_EQ(out, fill) << "message " << i << ": a failed header lands nothing";
    } else {
      ++payload_hits;
      EXPECT_NE(out, payload) << "message " << i << ": the check landed the damaged tile";
      EXPECT_NE(out, fill) << "message " << i;
    }
    d->copy_to(out);
    EXPECT_EQ(out, payload) << "message " << i;
  }
  EXPECT_GT(payload_hits, 0);
  EXPECT_EQ(w.receiver.transport().corrupt_frames, 12u);
  EXPECT_EQ(w.receiver.transport().retransmits, 12u);
}

TEST(OnePassFrame, AWrongSizeBufferRaisesTheSizeError) {
  OneLink w(FaultPlan::none());
  const std::vector<uint8_t> payload = pattern(kTile + 1);
  for (const size_t n : {size_t{0}, kTile, kTile + 2}) {
    const int tag = static_cast<int>(n);
    w.send(w.frame(payload, tag));
    std::vector<uint8_t> out(n, 0xEE);
    std::optional<simmpi::Delivery> d = w.take(tag, out);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->landed);
    EXPECT_EQ(out, std::vector<uint8_t>(n, 0xEE)) << "a wrong-size buffer is left alone";
    try {
      d->copy_to(out);
      ADD_FAILURE() << "no size error for a " << n << "-byte buffer";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "recv_into: message size " + std::to_string(kTile + 1) +
                                           " != buffer size " + std::to_string(n));
    }
  }

  Runtime rt(2, NetModel::omnipath_100g());
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 0, payload);
                 } else {
                   std::vector<uint8_t> short_buffer(kTile);
                   comm.recv_into(0, 0, short_buffer);
                 }
               }),
               Error);
}

/// A corrupted frame received into a buffer heals on either executor:
/// raw allreduces (every receive a recv_into) under a plan that flips one
/// bit of every frame in flight end with the clean run's bytes.
TEST(OnePassFrame, CorruptFramesHealOnBothExecutors) {
  JobConfig config;
  config.nranks = 4;
  const RankInputFn inputs = [](int rank) {
    std::vector<float> v(3 * kTile + 11);  // ragged ring blocks spanning tiles
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>((i * 13 + static_cast<size_t>(rank) * 7) % 1009) * 0.5f;
    }
    return v;
  };
  const JobResult clean = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  config.faults.seed = 29;
  config.faults.corrupt = 1.0;

  const JobResult runtime = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  EXPECT_EQ(runtime.rank0_output, clean.rank0_output);
  EXPECT_EQ(runtime.transport.corrupt_frames, runtime.transport.frames_sent);
  EXPECT_EQ(runtime.transport.retransmits, runtime.transport.frames_sent);

  sched::EngineConfig ec;
  ec.fleet_ranks = config.nranks;
  ec.faults = config.faults;
  sched::Engine engine(ec);
  const sched::Request req = engine.submit(Kernel::kMpi, sched::ICollOp::kAllreduce, config, inputs);
  engine.run();
  const sched::JobOutcome& got = engine.outcome(req);
  ASSERT_TRUE(got.completed) << got.error;
  EXPECT_EQ(got.rank0_output, clean.rank0_output);
  EXPECT_GT(got.transport.corrupt_frames, 0u);
  EXPECT_EQ(got.transport.corrupt_frames, runtime.transport.corrupt_frames);
}

TEST(TransportStats, SumAndDescribe) {
  TransportStats a, b;
  a.retransmits = 2;
  a.frames_sent = 10;
  b.corrupt_frames = 3;
  b.frames_sent = 5;
  EXPECT_TRUE(TransportStats{}.clean());
  EXPECT_FALSE(b.clean());
  const TransportStats sum = total_transport(std::vector<TransportStats>{a, b});
  EXPECT_EQ(sum.frames_sent, 15u);
  EXPECT_EQ(sum.retransmits, 2u);
  EXPECT_EQ(sum.corrupt_frames, 3u);
  EXPECT_NE(describe(sum).find("retx=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 2. Transport: each fault kind in isolation
// ---------------------------------------------------------------------------

/// Ping `count` distinct payloads 0→1 under `plan`; returns the summed
/// transport counters after asserting every payload arrived intact.
/// (Injection is counted on the sender, recovery on the receiver.)
TransportStats exchange_under(const FaultPlan& plan, int count) {
  Runtime rt(2, NetModel::omnipath_100g(), plan);
  rt.run([&](Comm& comm) {
    for (int i = 0; i < count; ++i) {
      std::vector<uint8_t> payload(64 + static_cast<size_t>(i));
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<uint8_t>((i * 31 + static_cast<int>(j)) & 0xFF);
      }
      if (comm.rank() == 0) {
        comm.send(1, i, payload);
      } else {
        ASSERT_EQ(comm.recv(0, i), payload) << "message " << i;
      }
    }
  });
  return total_transport(rt.transport_stats());
}

TEST(Transport, CleanFabricStaysOnTheFastPath) {
  const TransportStats s = exchange_under(FaultPlan::none(), 32);
  EXPECT_EQ(s.frames_accepted, 32u);
  EXPECT_TRUE(s.clean());
}

TEST(Transport, DropsHealViaTimeoutAndRetransmit) {
  FaultPlan plan;
  plan.seed = 1;
  plan.drop = 0.4;
  const TransportStats s = exchange_under(plan, 64);
  EXPECT_EQ(s.frames_accepted, 64u);
  EXPECT_GT(s.timeout_waits, 0u);
  EXPECT_GT(s.retransmits, 0u);
}

TEST(Transport, CorruptionIsCaughtByTheCrcAndHealed) {
  FaultPlan plan;
  plan.seed = 2;
  plan.corrupt = 0.4;
  const TransportStats s = exchange_under(plan, 64);
  EXPECT_EQ(s.frames_accepted, 64u);
  EXPECT_GT(s.corrupt_frames, 0u);
  EXPECT_GT(s.retransmits, 0u);
}

TEST(Transport, DuplicatesAreDiscardedOnce) {
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate = 0.5;
  const TransportStats s = exchange_under(plan, 64);
  EXPECT_EQ(s.frames_accepted, 64u);
  EXPECT_GT(s.duplicate_discards, 0u);
}

TEST(Transport, ReorderedFramesStillMatchByTag) {
  FaultPlan plan;
  plan.seed = 4;
  plan.reorder = 0.6;
  const TransportStats s = exchange_under(plan, 64);
  EXPECT_EQ(s.frames_accepted, 64u);
  EXPECT_GT(s.faults_injected, 0u);
}

TEST(Transport, StallsChargeOnlyTime) {
  FaultPlan plan;
  plan.seed = 5;
  plan.stall = 0.5;

  Runtime faulted(2, NetModel::omnipath_100g(), plan);
  Runtime clean(2, NetModel::omnipath_100g());
  const auto job = [](Comm& comm) {
    std::vector<uint8_t> payload(256, 0x42);
    for (int i = 0; i < 32; ++i) {
      if (comm.rank() == 0) {
        comm.send(1, i, payload);
      } else {
        (void)comm.recv(0, i);
      }
    }
  };
  const auto slow = Runtime::slowest(faulted.run(job));
  const auto fast = Runtime::slowest(clean.run(job));
  EXPECT_GT(faulted.transport_stats()[0].stalls + faulted.transport_stats()[1].stalls, 0u);
  EXPECT_GT(slow.total_seconds, fast.total_seconds);
}

TEST(Transport, RefetchRequiresAnEnabledPlan) {
  Runtime rt(2, NetModel::omnipath_100g());
  rt.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<uint8_t>{1, 2, 3});
    } else {
      (void)comm.recv(0, 0);
      EXPECT_THROW((void)comm.refetch(0, 0, Comm::Refetch::kRetransmit), Error);
    }
  });
}

// ---------------------------------------------------------------------------
// 3. Chaos sweeps over the collective stacks
// ---------------------------------------------------------------------------

RankInputFn chaos_inputs(size_t elements, DatasetId id = DatasetId::kHurricane) {
  return [elements, id](int rank) {
    std::vector<float> full = generate_field(id, Scale::kTiny, static_cast<uint32_t>(rank));
    full.resize(elements);
    return full;
  };
}

/// The mixed plan the sweeps run under.  No mangle: raw-float payloads have
/// no decode layer to detect sender-side scribbling (the mangle fault gets
/// its own compressed-only test below).
FaultPlan mixed_plan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.05;
  plan.corrupt = 0.03;
  plan.reorder = 0.1;
  plan.duplicate = 0.05;
  plan.stall = 0.05;
  return plan;
}

struct ChaosCase {
  Kernel kernel;
  Op op;
  int nranks;
};

class ChaosSweepTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosSweepTest, FaultedRunMatchesFaultFreeRun) {
  const ChaosCase c = GetParam();
  const size_t elements = 6000;
  const RankInputFn inputs = chaos_inputs(elements);

  JobConfig config;
  config.nranks = c.nranks;
  config.abs_error_bound = 1e-3;
  const JobResult clean = run_collective(c.kernel, c.op, config, inputs);
  ASSERT_TRUE(clean.transport.clean());

  config.faults = mixed_plan(0xC0FFEE ^ static_cast<uint64_t>(c.nranks));
  const JobResult faulted = run_collective(c.kernel, c.op, config, inputs);

  // Transport healing is exact: the collective's bytes are untouched by the
  // wire faults, so faulted output == clean output bit for bit.
  EXPECT_EQ(faulted.rank0_output, clean.rank0_output)
      << kernel_name(c.kernel) << " " << op_name(c.op) << " N=" << c.nranks;
  EXPECT_GT(faulted.transport.faults_injected, 0u);
  EXPECT_EQ(faulted.transport.frames_sent, clean.transport.frames_sent);
  // Recovery costs time, never correctness.
  EXPECT_GE(faulted.slowest.total_seconds, clean.slowest.total_seconds);
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  for (Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
      for (int n : {4, 8, 16}) cases.push_back({k, op, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, ChaosSweepTest, ::testing::ValuesIn(chaos_cases()),
                         [](const auto& info) {
                           const ChaosCase& c = info.param;
                           std::string name = kernel_name(c.kernel) + "_" + op_name(c.op) +
                                              "_N" + std::to_string(c.nranks);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(Chaos, BroadcastHealsUnderMixedFaults) {
  const int n = 8;
  const RankInputFn inputs = chaos_inputs(5000, DatasetId::kCesmAtm);
  CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;

  for (const bool compressed : {false, true}) {
    TransportStats total;
    auto bcast_under = [&](const FaultPlan& plan) {
      Runtime rt(n, NetModel::omnipath_100g(), plan);
      std::vector<std::vector<float>> out(n);
      rt.run([&](Comm& comm) {
        std::vector<float> data = comm.rank() == 2 ? inputs(2) : std::vector<float>{};
        if (compressed) {
          coll::ccoll_bcast(comm, data, 2, cc);
        } else {
          coll::raw_bcast(comm, data, 2, cc);
        }
        out[static_cast<size_t>(comm.rank())] = std::move(data);
      });
      total = total_transport(rt.transport_stats());
      return out;
    };
    const std::vector<std::vector<float>> clean_out = bcast_under(FaultPlan::none());

    FaultPlan plan = mixed_plan(0xB0A7);
    if (compressed) plan.mangle = 0.1;  // the decode layer can catch this one
    const std::vector<std::vector<float>> out = bcast_under(plan);
    EXPECT_GT(total.faults_injected, 0u);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(out[r], clean_out[r]) << (compressed ? "ccoll" : "raw") << " rank " << r;
    }
    if (!compressed) continue;

    // Every frame mangled: each non-root hop's retransmit fails again, so
    // the receive ladder (heal_received_stream) takes the pristine stream
    // on all seven of them.
    FaultPlan always = FaultPlan::none();
    always.seed = 0xB0A7;
    always.mangle = 1.0;
    const std::vector<std::vector<float>> healed = bcast_under(always);
    EXPECT_EQ(total.retransmits, static_cast<uint64_t>(n - 1));
    EXPECT_EQ(total.raw_fallbacks, static_cast<uint64_t>(n - 1));
    for (int r = 0; r < n; ++r) EXPECT_EQ(healed[r], clean_out[r]) << "mangled rank " << r;
  }
}

TEST(Chaos, PersistentManglingFallsBackToTheRawBlock) {
  // Mangle every frame: retransmits re-roll but always fail too, so every
  // compressed hop must take the raw-block fallback — and the collective
  // still completes within its error bound.
  const int n = 4;
  const size_t elements = 4000;
  const RankInputFn inputs = chaos_inputs(elements, DatasetId::kRtmSim1);

  JobConfig config;
  config.nranks = n;
  config.abs_error_bound = 1e-3;
  config.faults.seed = 11;
  config.faults.mangle = 1.0;

  for (Kernel k : {Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    const JobResult faulted = run_collective(k, Op::kAllreduce, config, inputs);
    EXPECT_GT(faulted.transport.raw_fallbacks, 0u) << kernel_name(k);
    EXPECT_GT(faulted.transport.retransmits, 0u) << kernel_name(k);

    const std::vector<float> exact = exact_reduction(n, inputs);
    ASSERT_EQ(faulted.rank0_output.size(), exact.size());
    // Degraded rounds re-quantize like DOC, so allow the C-Coll growth law.
    const double bound = 3.0 * n * config.abs_error_bound;
    for (size_t i = 0; i < exact.size(); ++i) {
      ASSERT_NEAR(faulted.rank0_output[i], exact[i], bound) << kernel_name(k) << " i=" << i;
    }
  }
}

// Differential sweep for the degraded-round re-encode path: intermittent
// mangling leaves SOME rounds homomorphic and degrades the rest, so a
// refetched raw block is added classically, re-encoded, and the re-encoded
// block must rejoin the compressed pipeline as a valid hz_add operand at the
// next step — across every compressed kernel and both collective shapes.
struct DegradedCase {
  Kernel kernel;
  Op op;
  uint64_t seed;
};

class DegradedRoundSweepTest : public ::testing::TestWithParam<DegradedCase> {};

TEST_P(DegradedRoundSweepTest, ReencodedBlocksRejoinThePipeline) {
  const DegradedCase c = GetParam();
  const int n = 4;
  const size_t elements = 4000;
  const RankInputFn inputs = chaos_inputs(elements, DatasetId::kCesmAtm);

  JobConfig config;
  config.nranks = n;
  config.abs_error_bound = 1e-3;
  config.faults.seed = c.seed;
  config.faults.mangle = 0.5;

  const JobResult faulted = run_collective(c.kernel, c.op, config, inputs);

  // Mixed-mode execution: the degraded branch fired at least once...
  EXPECT_GT(faulted.transport.raw_fallbacks, 0u)
      << kernel_name(c.kernel) << " seed=" << c.seed;
  if (c.kernel == Kernel::kHzcclMultiThread || c.kernel == Kernel::kHzcclSingleThread) {
    // ...and some rounds still reduced homomorphically, which means the
    // re-encoded blocks were consumed as hz_add operands downstream.
    EXPECT_GT(faulted.pipeline_stats.blocks(), 0u)
        << kernel_name(c.kernel) << " seed=" << c.seed;
  }

  // Degraded rounds re-quantize like DOC, so allow the C-Coll growth law.
  const std::vector<float> exact = exact_reduction(n, inputs);
  const size_t expect_elems =
      c.op == Op::kAllreduce ? exact.size() : ring_block_range(exact.size(), n, 1).size();
  ASSERT_EQ(faulted.rank0_output.size(), expect_elems);
  const double bound = 3.0 * n * config.abs_error_bound;
  const size_t offset =
      c.op == Op::kAllreduce ? 0 : ring_block_range(exact.size(), n, 1).begin;
  for (size_t i = 0; i < faulted.rank0_output.size(); ++i) {
    ASSERT_NEAR(faulted.rank0_output[i], exact[offset + i], bound)
        << kernel_name(c.kernel) << " " << op_name(c.op) << " i=" << i;
  }
}

std::vector<DegradedCase> degraded_cases() {
  std::vector<DegradedCase> cases;
  for (Kernel k : {Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread,
                   Kernel::kCCollSingleThread, Kernel::kHzcclSingleThread}) {
    for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
      for (uint64_t seed : {0xDE6Aull, 0xDE6Bull}) cases.push_back({k, op, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCompressedStacks, DegradedRoundSweepTest,
                         ::testing::ValuesIn(degraded_cases()),
                         [](const auto& info) {
                           const DegradedCase& c = info.param;
                           std::string name = kernel_name(c.kernel) + "_" + op_name(c.op) +
                                              "_S" + std::to_string(c.seed & 0xF);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

// The ISSUE's acceptance scenario, verbatim: seeded chaos on an 8-rank
// hZCCL allreduce completes, matches the fault-free run, reports recovery
// work, and replays byte-identically — counters and virtual times included.
TEST(Chaos, AcceptanceSeededRunMatchesAndReplays) {
  const size_t elements = 6000;
  const RankInputFn inputs = chaos_inputs(elements);

  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  const JobResult clean = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config,
                                         inputs);

  config.faults.seed = 42;
  config.faults.drop = 0.05;
  config.faults.corrupt = 0.02;
  config.faults.reorder = 0.1;
  const JobResult first = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config,
                                         inputs);
  const JobResult second = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config,
                                          inputs);

  // Completes and matches the fault-free result (within the bound — here
  // exactly, because wire healing is lossless).
  EXPECT_EQ(first.rank0_output, clean.rank0_output);

  // Reports the recovery work.
  EXPECT_GT(first.transport.retransmits, 0u);
  EXPECT_GT(first.transport.corrupt_frames, 0u);

  // Replays byte-identically from the seed.
  EXPECT_EQ(first.rank0_output, second.rank0_output);
  ASSERT_EQ(first.transport_per_rank.size(), second.transport_per_rank.size());
  for (size_t r = 0; r < first.transport_per_rank.size(); ++r) {
    const TransportStats& a = first.transport_per_rank[r];
    const TransportStats& b = second.transport_per_rank[r];
    EXPECT_EQ(describe(a), describe(b)) << "rank " << r;
    EXPECT_EQ(first.per_rank[r].total_seconds, second.per_rank[r].total_seconds) << "rank " << r;
  }
  EXPECT_EQ(first.slowest.total_seconds, second.slowest.total_seconds);
}

}  // namespace
}  // namespace hzccl
