// Every collective schedule, written once as a coroutine over a Transport.
//
// The blocking entry points (raw.hpp, ccoll.hpp, hzccl_coll.hpp,
// algorithms.hpp) run these bodies to completion on the rank thread through
// CommTransport; the sched::Engine resumes the same bodies through its Port.
// Block arithmetic, tags, compression calls, clock charges and the healing
// ladders therefore exist once, and the two executors agree byte for byte by
// construction.  The healing branches (NACK/retransmit, raw fallback) run
// only under an enabled link-fault plan, on either executor: both serve the
// refetch from the one link layer's in-flight window (simmpi/link.hpp).
//
// Conventions: a body takes its transport by value (a copyable handle) and
// references to the caller's data, and is awaited by its caller at once
// (see util/task.hpp for the lifetime rule).  Synchronous helpers take the
// transport by reference.
#pragma once

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hzccl/collectives/common.hpp"
#include "hzccl/collectives/transport.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/integrity/digest.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/task.hpp"

namespace hzccl::coll::body {

using simmpi::CostBucket;
using simmpi::Mode;
using trace::EventKind;

// ---------------------------------------------------------------------------
// ABFT digest verification (the verify-and-recover layer).  All work is
// charged to the virtual clock as kVerify spans and tallied in integrity().
// ---------------------------------------------------------------------------

/// Recheck the per-chunk digest table of `bytes` (one integer-domain decode
/// pass, no float writes).  Charges a kVerify span and bumps
/// digests_checked; on mismatch bumps mismatches, marks kSdcDetected and
/// returns false.  Streams that do not parse also return false; streams
/// without digests pass vacuously (nothing to check).
template <Transport T>
bool verify_stream_digests(T& t, std::span<const uint8_t> bytes, const CollectiveConfig& config) {
  DigestCheck check;
  try {
    check = fz_verify_digests(parse_fz(bytes), config.host_threads);
  } catch (const Error&) {
    // A digest walk that throws mid-chunk (corrupt residual encoding inside
    // a stream that still parses) is itself a detection — count it so the
    // mismatch tally covers every recovery the caller performs.
    ++t.integrity().digests_checked;
    ++t.integrity().mismatches;
    t.mark(EventKind::kSdcDetected);
    return false;
  }
  if (!check.checked) return true;  // no digest table: nothing to recheck
  t.charge(CostBucket::kCpt, config.cost.seconds_digest_verify(bytes.size(), config.mode),
           EventKind::kVerify, bytes.size());
  ++t.integrity().digests_checked;
  if (check.ok) return true;
  ++t.integrity().mismatches;
  t.mark(EventKind::kSdcDetected);
  return false;
}

/// Final-decode gate: under any active verify policy, recheck `stream`
/// before its contents become the collective's result; throws
/// IntegrityError on mismatch (detection — per-round recovery, if wanted,
/// already happened upstream).  kOff is a no-op.
template <Transport T>
void final_verify_stream(T& t, const CompressedBuffer& stream, const CollectiveConfig& config) {
  if (config.verify == VerifyPolicy::kOff) return;
  if (verify_stream_digests(t, stream.bytes, config)) return;
  throw IntegrityError(
      "ABFT digest mismatch at the final decode: the result would carry "
      "silent data corruption");
}

// ---------------------------------------------------------------------------
// Codec steps with their clock charges.
// ---------------------------------------------------------------------------

/// Compress a float block into pooled storage and charge CPR.
template <Transport T>
[[nodiscard]] CompressedBuffer compress_block(T& t, std::span<const float> block,
                                              const CollectiveConfig& config) {
  CompressedBuffer out = fz_compress(block, config.fz_params(block.size()), &t.pool());
  t.charge(CostBucket::kCpr, config.cost.seconds_fz_compress(block.size_bytes(), config.mode),
           EventKind::kCompress, block.size_bytes(), out.bytes.size());
  return out;
}

/// Decode `stream` into `out` and charge DPR.
template <Transport T>
void decompress_charged(T& t, const CompressedBuffer& stream, std::span<float> out,
                        const CollectiveConfig& config) {
  fz_decompress(stream, out, config.host_threads);
  t.charge(CostBucket::kDpr, config.cost.seconds_fz_decompress(out.size_bytes(), config.mode),
           EventKind::kDecompress, out.size_bytes(), stream.bytes.size());
}

/// Round 1 of the paper's Fig 5: compress all `nblocks` ring blocks of this
/// rank's input in one pass; the CPR charge covers the full input.
/// `nblocks` is the ring size — the whole communicator for the flat ring,
/// the leader count for the two-level inter-node ring.
template <Transport T>
std::vector<CompressedBuffer> compress_all_blocks(T& t, std::span<const float> input, int nblocks,
                                                  const CollectiveConfig& config) {
  std::vector<CompressedBuffer> blocks(static_cast<size_t>(nblocks));
  for (int b = 0; b < nblocks; ++b) {
    const Range r = ring_block_range(input.size(), nblocks, b);
    blocks[static_cast<size_t>(b)] = fz_compress(input.subspan(r.begin, r.size()),
                                                 config.fz_params(r.size()), &t.pool());
  }
  uint64_t compressed_bytes = 0;
  for (const CompressedBuffer& b : blocks) compressed_bytes += b.bytes.size();
  t.charge(CostBucket::kCpr, config.cost.seconds_fz_compress(input.size_bytes(), config.mode),
           EventKind::kCompress, input.size_bytes(), compressed_bytes);
  return blocks;
}

/// The last stage of every compressed allgather: verify (any active policy)
/// and decode each ring block into place, recycling every stream, then one
/// DPR charge for the whole vector.
template <Transport T>
void decode_all_blocks(T& t, std::vector<CompressedBuffer>& blocks, size_t total_elements,
                       std::vector<float>& out_full, const CollectiveConfig& config) {
  const int nblocks = static_cast<int>(blocks.size());
  out_full.assign(total_elements, 0.0f);
  uint64_t compressed_bytes = 0;
  for (int b = 0; b < nblocks; ++b) {
    CompressedBuffer& block = blocks[static_cast<size_t>(b)];
    const Range r = ring_block_range(total_elements, nblocks, b);
    final_verify_stream(t, block, config);
    fz_decompress(block, std::span<float>(out_full).subspan(r.begin, r.size()),
                  config.host_threads);
    compressed_bytes += block.bytes.size();
    t.pool().release(std::move(block.bytes));
  }
  t.charge(CostBucket::kDpr,
           config.cost.seconds_fz_decompress(total_elements * sizeof(float), config.mode),
           EventKind::kDecompress, total_elements * sizeof(float), compressed_bytes);
}

/// Make `acc` a copy of `input` to accumulate in place, charged as a pack.
/// `input` may lie in `acc`'s own storage (an in-place call).
template <Transport T>
void working_copy_into(T& t, std::span<const float> input, std::vector<float>& acc,
                       const CollectiveConfig& config) {
  const float* const base = acc.data();
  if (std::less_equal<const float*>{}(base, input.data()) &&
      std::less<const float*>{}(input.data(), base + acc.size())) {
    std::memmove(acc.data(), input.data(), input.size_bytes());
    acc.resize(input.size());
  } else {
    acc.assign(input.begin(), input.end());
  }
  t.charge(CostBucket::kOther, config.cost.seconds_memcpy(input.size_bytes()), EventKind::kPack,
           input.size_bytes());
}

/// The working copy a schedule accumulates in place, charged as a pack.
template <Transport T>
std::vector<float> working_copy(T& t, std::span<const float> input,
                                const CollectiveConfig& config) {
  std::vector<float> acc;
  working_copy_into(t, input, acc, config);
  return acc;
}

/// `acc[offset..] op= incoming`, charged as a float reduction at `mode`:
/// MPI reduces inside its single-threaded progress engine, DOC and the
/// two-level hZ leader at the job's mode.
template <Transport T>
void reduce_into(T& t, std::span<float> acc, std::span<const float> incoming, size_t offset,
                 const CollectiveConfig& config, Mode mode) {
  reduce_combine_span(config.reduce_op, acc.data() + offset, incoming.data(), incoming.size());
  t.charge(CostBucket::kCpt, config.cost.seconds_raw_sum(incoming.size_bytes(), mode),
           EventKind::kReduce, incoming.size_bytes());
}

// ---------------------------------------------------------------------------
// Receive-side healing of compressed streams (graceful degradation).
//
// The transport heals wire damage (CRC-rejected frames, drops, duplicates)
// inside its receive.  What it cannot catch is CRC-*valid* corruption — a
// faulty sender whose encoder scribbled the stream before framing.
// heal_received_stream closes that gap for every compressed receive:
// validate that the stream decodes, NACK once for a retransmission, and on
// persistent failure take the sender's pristine stream instead of aborting
// the job.
// ---------------------------------------------------------------------------

/// The one receive check and healing ladder of a compressed stream: `bytes`
/// was just received from (src, tag) and must decode to `expect_elements`
/// elements (0 accepts any count) and, under per-round verification, pass
/// its digests.  Failures under a link-fault plan heal in two stages: one
/// NACK/retransmit, then the raw fallback, which puts the sender's pristine
/// stream in `bytes` and prices the wire at `expect_elements` floats (at the
/// stored stream when the count is 0).  Returns true when `bytes` hold that
/// pristine stream.  Without a fault plan a failure is a producer bug and
/// throws.  Synchronous, so the ring receives run it with no coroutine frame
/// of its own.
template <Transport T>
bool heal_received_stream(T& t, int src, int tag, std::vector<uint8_t>& bytes,
                          size_t expect_elements, const CollectiveConfig& config) {
  // Per-round verification stacks the digest recheck on top of the
  // structural decode check: a CRC-valid, well-formed stream whose payload
  // was silently flipped decodes fine but fails its digests.
  const bool check_digests = config.verify == VerifyPolicy::kPerRound;
  // Wire SDC flips a payload bit before the CRC seal, so a flipped
  // code-length byte passes the parse and would throw in the later decode.
  // Under a link-fault plan the check therefore walks every block chain,
  // and such a stream heals like a mangled one; the per-round digest walk
  // checks every block itself (and counts a broken chain as a detection).
  const bool walk_blocks = t.faults().enabled() && !check_digests;
  const auto stream_ok = [&](bool* digest_failure) {
    if (!fz_stream_decodes(bytes, expect_elements, walk_blocks)) return false;
    if (check_digests && !verify_stream_digests(t, bytes, config)) {
      if (digest_failure != nullptr) *digest_failure = true;
      return false;
    }
    return true;
  };
  bool digest_failure = false;
  if (stream_ok(&digest_failure)) return false;

  if (!t.faults().enabled()) {
    // No faults were injected, so this is a genuine producer bug — surface
    // it instead of silently working around it.
    if (digest_failure) {
      throw IntegrityError("received stream fails its ABFT digests with no fault plan");
    }
    throw FormatError("received stream does not decode to the expected block");
  }

  // Stage 1: one NACK/retransmit.  Heals anything that damaged only this
  // wire copy; a sender whose encoder is corrupting the stream itself
  // re-rolls its fault and may fail again.
  bytes = t.refetch(src, tag, simmpi::Comm::Refetch::kRetransmit);
  if (stream_ok(nullptr)) {
    if (digest_failure) ++t.integrity().retransmit_recoveries;
    return false;
  }

  // Stage 2: persistent decode failure — the sender's pristine stream, its
  // own output and therefore ground truth: no digest recheck can reject it.
  bytes = t.refetch(src, tag, simmpi::Comm::Refetch::kRawFallback,
                    expect_elements * sizeof(float));
  if (digest_failure) ++t.integrity().raw_fallbacks;
  return true;
}

/// Receive one fZ-light block of `expect_elements` elements from (src, tag)
/// through heal_received_stream.  A raw-fallback block arrives degraded, as
/// floats: decoding the pristine stream here, charged to DPR, stands in for
/// the sender decompressing its intact copy before shipping them.
template <Transport T>
Task<CheckedBlock> recv_checked_block(T t, int src, int tag, size_t expect_elements,
                                      const CollectiveConfig& config) {
  CheckedBlock out;
  out.compressed.bytes = co_await t.recv(src, tag);
  if (heal_received_stream(t, src, tag, out.compressed.bytes, expect_elements, config)) {
    out.raw.resize(expect_elements);
    decompress_charged(t, out.compressed, out.raw, config);
    out.compressed = CompressedBuffer{};
    out.degraded = true;
  }
  co_return out;
}

/// A received compressed block ready to forward: a raw-fallback block is
/// re-encoded so downstream ranks keep receiving compressed traffic.
template <Transport T>
[[nodiscard]] CompressedBuffer forwardable(T& t, CheckedBlock received,
                                           const CollectiveConfig& config) {
  if (received.degraded) return compress_block(t, received.raw, config);
  return std::move(received.compressed);
}

// ---------------------------------------------------------------------------
// Raw-float exchange with an optional content-digest trailer.  Under a
// verify policy the sender ships digest(payload bytes) as a 16-byte message
// on `tag + kTagDigest`; the receiver recomputes and compares, healing a
// mismatch by retransmitting the payload, then the trailer, and finally
// accepting the sender's pristine copy (ground truth by construction).
// With kOff these are exactly send_floats / recv_into.
// ---------------------------------------------------------------------------

/// One pass over a float payload for its content digest, charged like a
/// compressed-stream verify at `mode`: the mode the exchange's stack reduces
/// at — single-threaded for the raw stack, whose walks run where MPI
/// reduces, in its progress engine; the leader's reduce mode for the
/// two-level intra-node phase.  RoundSim prices the walks the same way.
template <Transport T>
integrity::Digest charged_content_digest(T& t, std::span<const float> data,
                                         const CollectiveConfig& config, Mode mode) {
  const integrity::Digest d = integrity::content_digest(std::as_bytes(data));
  t.charge(CostBucket::kCpt, config.cost.seconds_digest_verify(data.size_bytes(), mode),
           EventKind::kVerify, data.size_bytes());
  return d;
}

template <Transport T>
void send_floats_checked(T& t, int dst, int tag, std::span<const float> data,
                         const CollectiveConfig& config, Mode mode) {
  t.send_floats(dst, tag, data);
  if (config.verify == VerifyPolicy::kOff) return;
  const std::array<uint8_t, 16> wire =
      digest_trailer_bytes(charged_content_digest(t, data, config, mode));
  t.send(dst, tag + kTagDigest, wire);
}

/// The raw fallback of a float exchange: the sender's pristine payload on
/// (src, tag) into `out`, with the wire priced at its size.
template <Transport T>
void refetch_pristine_floats(T& t, int src, int tag, std::span<float> out) {
  const std::vector<uint8_t> pristine =
      t.refetch(src, tag, simmpi::Comm::Refetch::kRawFallback, out.size_bytes());
  if (pristine.size() != out.size_bytes()) {
    throw FormatError("pristine raw payload size does not match the receive buffer");
  }
  std::memcpy(out.data(), pristine.data(), pristine.size());
}

/// The receiver's half under a verify policy, for a payload from `src` on
/// `tag` already in `out`: recheck it against its trailer and heal it, so
/// a receive that learns its length from the payload can use it too.
template <Transport T>
Task<void> verify_floats(T t, int src, int tag, std::span<float> out,
                         const CollectiveConfig& config, Mode mode) {
  integrity::Digest expected = parse_digest_trailer(co_await t.recv(src, tag + kTagDigest));
  const auto matches = [&] {
    ++t.integrity().digests_checked;
    return charged_content_digest(t, out, config, mode) == expected;
  };
  if (matches()) co_return;
  ++t.integrity().mismatches;
  t.mark(EventKind::kSdcDetected);
  if (config.verify != VerifyPolicy::kPerRound) {
    // Verify-final is detection without recovery.
    throw IntegrityError("raw float payload fails its content digest (verify=final)");
  }
  if (!t.faults().enabled()) {
    throw IntegrityError("raw float payload fails its content digest with no fault plan");
  }

  // Stage 1: retransmit the payload — heals a flipped payload copy.
  const std::vector<uint8_t> again = t.refetch(src, tag, simmpi::Comm::Refetch::kRetransmit);
  if (again.size() == out.size_bytes()) {
    std::memcpy(out.data(), again.data(), again.size());
    if (matches()) {
      ++t.integrity().retransmit_recoveries;
      co_return;
    }
  }

  // Stage 2: the trailer itself rides the faulty wire too — retransmit it
  // and recompare before blaming the payload again.
  try {
    expected = parse_digest_trailer(
        t.refetch(src, tag + kTagDigest, simmpi::Comm::Refetch::kRetransmit));
  } catch (const FormatError&) {
    // a mangled retransmitted trailer: fall through to the pristine payload
  }
  if (matches()) {
    ++t.integrity().retransmit_recoveries;
    co_return;
  }

  // Stage 3: the sender's pristine payload is ground truth by construction —
  // accept it unconditionally.
  refetch_pristine_floats(t, src, tag, out);
  ++t.integrity().raw_fallbacks;
}

template <Transport T>
Task<void> recv_floats_checked(T t, int src, int tag, std::span<float> out,
                               const CollectiveConfig& config, Mode mode) {
  co_await t.recv_into(src, tag, writable_bytes_of(out));
  if (config.verify != VerifyPolicy::kOff) co_await verify_floats(t, src, tag, out, config, mode);
}

// ---------------------------------------------------------------------------
// The homomorphic combine (HPR) with its healing ladder.
// ---------------------------------------------------------------------------

/// Reduce `received` into `acc` (both streams carry `elements` floats).
/// The clean round is the co-designed one — hz_add reduces the two
/// compressed operands directly (HPR).  A degraded operand (raw-fallback
/// floats), or a stream that parsed but would not reduce homomorphically,
/// demotes just this round to the classic DOC path: decompress our partial,
/// add floats, re-encode — and the accumulator rejoins the homomorphic
/// pipeline on the next round.  Shared by the ring, recursive-doubling and
/// Rabenseifner schedules so every algorithm heals identically.
template <Transport T>
void combine_checked_block(T& t, CompressedBuffer& acc, CheckedBlock received, size_t elements,
                           int src, int tag, const CollectiveConfig& config,
                           HzPipelineStats* pipeline_stats, std::vector<float>& scratch) {
  BufferPool& pool = t.pool();
  if (!received.degraded) {
    try {
      HzPipelineStats stats;
      CompressedBuffer summed =
          hz_add(acc, received.compressed, &stats, config.host_threads, &pool);
      t.charge(CostBucket::kHpr, config.cost.seconds_hz_add(stats, config.block_len, config.mode),
               EventKind::kHomReduce, elements * sizeof(float), summed.bytes.size());
      // Combine-output verification: hz_add folded the operands' digests
      // algebraically, so a combine whose data lane was silently perturbed
      // (a poisoned combine) contradicts its own digest table.  Recompute
      // once — the injection counter has advanced, so a transient fault
      // heals; a persistent one demotes this round to DOC below, where
      // fz_compress re-derives digests from the data.
      bool verified = true;
      if (config.verify == VerifyPolicy::kPerRound &&
          !verify_stream_digests(t, summed.bytes, config)) {
        t.mark(EventKind::kRecompute);
        ++t.integrity().recomputes;
        pool.release(std::move(summed.bytes));
        HzPipelineStats retry_stats;
        summed = hz_add(acc, received.compressed, &retry_stats, config.host_threads, &pool);
        t.charge(CostBucket::kHpr,
                 config.cost.seconds_hz_add(retry_stats, config.block_len, config.mode),
                 EventKind::kHomReduce, elements * sizeof(float), summed.bytes.size());
        stats += retry_stats;
        verified = verify_stream_digests(t, summed.bytes, config);
      }
      if (verified) {
        if (pipeline_stats) *pipeline_stats += stats;
        pool.release(std::move(received.compressed.bytes));
        pool.release(std::move(acc.bytes));
        acc = std::move(summed);
        return;
      }
      // Persistent combine corruption.  The received operand passed its own
      // checks on receive — the fault is in *our* combine — so decode it
      // locally and take the classic DOC round (no wire round-trip needed).
      pool.release(std::move(summed.bytes));
      received.raw.resize(elements);
      decompress_charged(t, received.compressed, received.raw, config);
      pool.release(std::move(received.compressed.bytes));
      received.degraded = true;
      ++t.integrity().raw_fallbacks;
    } catch (const Error&) {
      // The stream parsed but could not be reduced homomorphically (deeper
      // corruption, layout drift, residual overflow).  Fetch the raw block
      // and degrade just this round instead of aborting.
      if (!t.faults().enabled()) throw;
      CompressedBuffer pristine;
      pristine.bytes = t.refetch(src, tag, simmpi::Comm::Refetch::kRawFallback,
                                 elements * sizeof(float));
      received.raw.resize(elements);
      decompress_charged(t, pristine, received.raw, config);
      received.degraded = true;
    }
  }

  // Degraded DOC round: the incoming operand is raw floats, so reduce the
  // classic way — decompress our partial, add, re-encode.
  scratch.resize(elements);
  decompress_charged(t, acc, scratch, config);
  // reduce_op is kSum here: every homomorphic body starts with require_sum.
  reduce_into(t, scratch, received.raw, 0, config, config.mode);
  pool.release(std::move(acc.bytes));
  acc = compress_block(t, scratch, config);
}

/// Receive a compressed block from (src, tag) and combine it into `acc`.
template <Transport T>
Task<void> combine_from(T t, CompressedBuffer& acc, size_t elements, int src, int tag,
                        const CollectiveConfig& config, HzPipelineStats* pipeline_stats,
                        std::vector<float>& scratch) {
  CheckedBlock received = co_await recv_checked_block(t, src, tag, elements, config);
  combine_checked_block(t, acc, std::move(received), elements, src, tag, config, pipeline_stats,
                        scratch);
}

// ---------------------------------------------------------------------------
// Raw ("original MPI") stack: float rings; reductions are charged
// single-threaded because MPI reduces inside its progress engine.
// ---------------------------------------------------------------------------

/// Ring reduce-scatter steps over `members` (virtual ranks, members[idx] is
/// this rank), accumulating in place: afterwards `acc` holds the fully
/// reduced block rs_owned_block(idx, members.size()).
template <Transport T>
Task<void> raw_ring_reduce_scatter_steps(T t, std::span<float> acc,
                                         const std::vector<int>& members, int idx,
                                         const CollectiveConfig& config) {
  const int n = static_cast<int>(members.size());
  if (n < 2) co_return;
  const int next = members[static_cast<size_t>(ring_next(idx, n))];
  const int prev = members[static_cast<size_t>(ring_prev(idx, n))];
  // The receive overwrites every float, so the buffer is never zero-filled;
  // the last ring block is the largest.
  const std::unique_ptr<float[]> recv_buf =
      std::make_unique_for_overwrite<float[]>(ring_block_range(acc.size(), n, n - 1).size());
  for (int step = 0; step < n - 1; ++step) {
    const Range send_r = ring_block_range(acc.size(), n, rs_send_block(idx, step, n));
    const Range recv_r = ring_block_range(acc.size(), n, rs_recv_block(idx, step, n));
    send_floats_checked(t, next, kTagReduceScatter + step,
                        acc.subspan(send_r.begin, send_r.size()), config, Mode::kSingleThread);
    const std::span<float> incoming(recv_buf.get(), recv_r.size());
    co_await recv_floats_checked(t, prev, kTagReduceScatter + step, incoming, config,
                                 Mode::kSingleThread);
    reduce_into(t, acc, incoming, recv_r.begin, config, Mode::kSingleThread);
  }
}

/// Ring allgather steps over `members` in place: `buf` holds this rank's
/// owned block on entry and every block on return.
template <Transport T>
Task<void> raw_ring_allgather_steps(T t, std::span<float> buf, const std::vector<int>& members,
                                    int idx, const CollectiveConfig& config) {
  const int n = static_cast<int>(members.size());
  const int next = members[static_cast<size_t>(ring_next(idx, n))];
  const int prev = members[static_cast<size_t>(ring_prev(idx, n))];
  for (int step = 0; step < n - 1; ++step) {
    const Range send_r = ring_block_range(buf.size(), n, ag_send_block(idx, step, n));
    const Range recv_r = ring_block_range(buf.size(), n, ag_recv_block(idx, step, n));
    send_floats_checked(t, next, kTagAllgather + step, buf.subspan(send_r.begin, send_r.size()),
                        config, Mode::kSingleThread);
    co_await recv_floats_checked(t, prev, kTagAllgather + step,
                                 buf.subspan(recv_r.begin, recv_r.size()), config,
                                 Mode::kSingleThread);
  }
}

template <Transport T>
Task<void> raw_reduce_scatter(T t, std::span<const float> input, std::vector<float>& out_block,
                              const CollectiveConfig& config) {
  std::vector<float> acc = working_copy(t, input, config);
  const std::vector<int> members = identity_members(t.size());
  co_await raw_ring_reduce_scatter_steps(t, acc, members, t.rank(), config);
  const Range owned = ring_block_range(acc.size(), t.size(), rs_owned_block(t.rank(), t.size()));
  out_block.assign(acc.begin() + static_cast<ptrdiff_t>(owned.begin),
                   acc.begin() + static_cast<ptrdiff_t>(owned.end));
}

template <Transport T>
Task<void> raw_allgather(T t, std::span<const float> my_block, size_t total_elements,
                         std::vector<float>& out_full, const CollectiveConfig& config) {
  out_full.assign(total_elements, 0.0f);
  const Range own = ring_block_range(total_elements, t.size(), rs_owned_block(t.rank(), t.size()));
  if (my_block.size() != own.size()) {
    throw Error("raw_allgather: my_block size does not match the owned block");
  }
  std::memcpy(out_full.data() + own.begin, my_block.data(), my_block.size_bytes());
  t.charge(CostBucket::kOther, config.cost.seconds_memcpy(my_block.size_bytes()),
           EventKind::kPack, my_block.size_bytes());
  const std::vector<int> members = identity_members(t.size());
  co_await raw_ring_allgather_steps(t, out_full, members, t.rank(), config);
}

/// raw_reduce_scatter then raw_allgather, run in `out_full` itself: the
/// input is copied once and each float of the result is written once.  The
/// clock charges are the composition's, the owned block's hand-off to the
/// allgather included.
template <Transport T>
Task<void> raw_allreduce(T t, std::span<const float> input, std::vector<float>& out_full,
                         const CollectiveConfig& config) {
  working_copy_into(t, input, out_full, config);
  const std::vector<int> members = identity_members(t.size());
  co_await raw_ring_reduce_scatter_steps(t, out_full, members, t.rank(), config);
  const size_t own_bytes =
      ring_block_range(out_full.size(), t.size(), rs_owned_block(t.rank(), t.size())).size() *
      sizeof(float);
  t.charge(CostBucket::kOther, config.cost.seconds_memcpy(own_bytes), EventKind::kPack, own_bytes);
  co_await raw_ring_allgather_steps(t, out_full, members, t.rank(), config);
}

template <Transport T>
Task<void> raw_allreduce_recursive_doubling(T t, std::span<const float> input,
                                            std::vector<float>& out_full,
                                            const CollectiveConfig& config) {
  const int rank = t.rank();
  std::vector<float> acc = working_copy(t, input, config);
  const DoublingLayout d = doubling_layout(rank, t.size());
  // One receive buffer for the fold and every exchange, each of which
  // overwrites it whole, so it is never zero-filled; only active ranks (the
  // odd rank of a folded pair among them) receive into it.
  const size_t recv_len = d.active >= 0 ? acc.size() : 0;
  const std::unique_ptr<float[]> recv_buf = std::make_unique_for_overwrite<float[]>(recv_len);
  const std::span<float> incoming(recv_buf.get(), recv_len);

  // Fold phase: even ranks of each folded pair hand their data to the odd one.
  if (d.folded_pair) {
    if (rank % 2 == 0) {
      send_floats_checked(t, rank + 1, kTagFold, acc, config, Mode::kSingleThread);
    } else {
      co_await recv_floats_checked(t, rank - 1, kTagFold, incoming, config,
                                   Mode::kSingleThread);
      reduce_into(t, acc, incoming, 0, config, Mode::kSingleThread);
    }
  }

  if (d.active >= 0) {
    int step = 0;
    for (int mask = 1; mask < d.p2; mask <<= 1, ++step) {
      const int partner = d.real_rank(d.active ^ mask);
      send_floats_checked(t, partner, kTagStep + step, acc, config, Mode::kSingleThread);
      co_await recv_floats_checked(t, partner, kTagStep + step, incoming, config,
                                   Mode::kSingleThread);
      reduce_into(t, acc, incoming, 0, config, Mode::kSingleThread);
    }
  }

  // Unfold phase: the folded even ranks receive the finished result.
  if (d.folded_pair) {
    if (rank % 2 == 0) {
      co_await recv_floats_checked(t, rank + 1, kTagUnfold, acc, config,
                                   Mode::kSingleThread);
    } else {
      send_floats_checked(t, rank - 1, kTagUnfold, acc, config, Mode::kSingleThread);
    }
  }
  out_full = std::move(acc);
}

template <Transport T>
Task<void> raw_allreduce_rabenseifner(T t, std::span<const float> input,
                                      std::vector<float>& out_full,
                                      const CollectiveConfig& config) {
  const int size = t.size();
  const int rank = t.rank();
  if ((size & (size - 1)) != 0) {
    // Non-power-of-two: MPICH falls back; so do we, to the ring.
    co_await raw_allreduce(t, input, out_full, config);
    co_return;
  }

  std::vector<float> acc = working_copy(t, input, config);

  // Recursive-halving reduce-scatter: each exchange halves the live segment
  // [lo, hi); the lower-ranked partner keeps the lower half.
  size_t lo = 0, hi = acc.size();
  std::vector<std::pair<size_t, size_t>> splits;  // segment before each split
  // Each receive overwrites its segment of this buffer, never zero-filled;
  // the first segment, the larger half, is the longest.
  const std::unique_ptr<float[]> recv_buf =
      std::make_unique_for_overwrite<float[]>(acc.size() - acc.size() / 2);
  int step = 0;
  for (int mask = size / 2; mask >= 1; mask >>= 1, ++step) {
    const int partner = rank ^ mask;
    const size_t mid = lo + (hi - lo) / 2;
    splits.emplace_back(lo, hi);
    const bool keep_low = rank < partner;
    const size_t send_lo = keep_low ? mid : lo;
    const size_t send_hi = keep_low ? hi : mid;
    send_floats_checked(t, partner, kTagStep + step,
                        std::span<const float>(acc).subspan(send_lo, send_hi - send_lo), config,
                        Mode::kSingleThread);
    lo = keep_low ? lo : mid;
    hi = keep_low ? mid : hi;
    const std::span<float> incoming(recv_buf.get(), hi - lo);
    co_await recv_floats_checked(t, partner, kTagStep + step, incoming, config,
                                 Mode::kSingleThread);
    reduce_into(t, acc, incoming, lo, config, Mode::kSingleThread);
  }

  // Recursive-doubling allgather: walk the splits back, each exchange
  // restoring the sibling half of the enclosing segment.
  for (int mask = 1; mask < size; mask <<= 1, ++step) {
    const int partner = rank ^ mask;
    const auto [parent_lo, parent_hi] = splits.back();
    splits.pop_back();
    send_floats_checked(t, partner, kTagStep + step,
                        std::span<const float>(acc).subspan(lo, hi - lo), config,
                        Mode::kSingleThread);
    // Holding the lower half, the partner supplies [hi, parent_hi).
    const size_t recv_lo = lo == parent_lo ? hi : parent_lo;
    const size_t recv_hi = lo == parent_lo ? parent_hi : lo;
    co_await recv_floats_checked(t, partner, kTagStep + step,
                                 std::span<float>(acc).subspan(recv_lo, recv_hi - recv_lo),
                                 config, Mode::kSingleThread);
    lo = parent_lo;
    hi = parent_hi;
  }
  out_full = std::move(acc);
}

// ---------------------------------------------------------------------------
// The intra-node stage of both two-level schedules.
// ---------------------------------------------------------------------------

/// Members ship raw floats to their node leader over the fast intra-node
/// channel and receive the finished vector into `out_full` (compression
/// would cost more than the copy saves on a shared-memory-class link; a
/// verify policy rides a content-digest trailer instead) — returns false.
/// The leader accumulates the node-local sum uncompressed into `acc`,
/// charging each reduction at `reduce_mode`, and returns true; it then runs
/// its inter-node stage and finishes with intra_node_bcast.
template <Transport T>
Task<bool> intra_node_reduce(T t, std::span<const float> input, const NodeGroups& g,
                             std::vector<float>& acc, std::vector<float>& out_full,
                             const CollectiveConfig& config, Mode reduce_mode) {
  const int rank = t.rank();
  const int leader = g.node_members.front();
  if (rank != leader) {
    send_floats_checked(t, leader, kTagIntraReduce + rank, input, config, reduce_mode);
    out_full.resize(input.size());
    co_await recv_floats_checked(t, leader, kTagIntraBcast + rank, out_full, config,
                                 reduce_mode);
    co_return false;
  }

  acc = working_copy(t, input, config);
  // Every member's payload overwrites this buffer whole: never zero-filled.
  const std::unique_ptr<float[]> recv_buf = std::make_unique_for_overwrite<float[]>(input.size());
  const std::span<float> incoming(recv_buf.get(), input.size());
  for (size_t m = 1; m < g.node_members.size(); ++m) {
    const int member = g.node_members[m];
    co_await recv_floats_checked(t, member, kTagIntraReduce + member, incoming, config,
                                 reduce_mode);
    reduce_into(t, acc, incoming, 0, config, reduce_mode);
  }
  co_return true;
}

/// The leader's last step: the finished vector to every node member.
template <Transport T>
void intra_node_bcast(T& t, const NodeGroups& g, std::span<const float> out_full,
                      const CollectiveConfig& config, Mode reduce_mode) {
  for (size_t m = 1; m < g.node_members.size(); ++m) {
    send_floats_checked(t, g.node_members[m], kTagIntraBcast + g.node_members[m], out_full,
                        config, reduce_mode);
  }
}

/// Raw two-level: the float ring among the node leaders (the flat raw ring
/// over the leader subset), reductions charged single-threaded throughout.
template <Transport T>
Task<void> raw_allreduce_two_level(T t, std::span<const float> input,
                                   std::vector<float>& out_full, const CollectiveConfig& config) {
  const NodeGroups g = node_groups(t.net().topo, t.group(), t.rank());
  std::vector<float> acc;
  if (!co_await intra_node_reduce(t, input, g, acc, out_full, config, Mode::kSingleThread)) {
    co_return;
  }
  if (g.leaders.size() > 1) {
    co_await raw_ring_reduce_scatter_steps(t, acc, g.leaders, g.my_leader_idx, config);
    co_await raw_ring_allgather_steps(t, acc, g.leaders, g.my_leader_idx, config);
  }
  out_full = std::move(acc);
  intra_node_bcast(t, g, out_full, config, Mode::kSingleThread);
}

// ---------------------------------------------------------------------------
// C-Coll (DOC) stack: every reduce-scatter round compresses, decompresses
// and reduces over floats; the allgather compresses once.
// ---------------------------------------------------------------------------

/// Decompress a received stream for a DOC reduction and charge DPR.  DOC
/// consumes every stream right here (there is no later decode to gate), so
/// the verify-final policy checks digests at this point; per-round
/// verification already happened inside recv_checked_block with recovery,
/// so it is not repeated.
template <Transport T>
void doc_decompress(T& t, const CompressedBuffer& compressed, std::span<float> out,
                    const CollectiveConfig& config) {
  if (config.verify == VerifyPolicy::kFinal) final_verify_stream(t, compressed, config);
  decompress_charged(t, compressed, out, config);
}

/// C-Coll's DOC send at ring step `step` (N-1 for the allreduce's owned
/// block, which its allgather sends): compress the partial block `partial`,
/// whose own input block is `own`.  Past step 0 the partial was reduced from
/// the stream received from `src` at step - 1.  Under a link-fault plan a
/// wire-SDC flip that keeps that stream's block chain intact passes
/// heal_received_stream's walk and decodes to wild floats, so the partial
/// can leave the quantization domain.  Healed as
/// compress_leader_blocks heals: the partial is rebuilt from `own` and the
/// sender's pristine stream (Refetch::kRawFallback), then compressed once
/// more; a second failure — the data itself is out of domain — propagates.
/// Without a fault plan this is compress_block.
template <Transport T>
[[nodiscard]] CompressedBuffer compress_doc_partial(T& t, std::span<float> partial,
                                                    std::span<const float> own, int src,
                                                    int step, const CollectiveConfig& config) {
  try {
    return compress_block(t, partial, config);
  } catch (const Error&) {
    if (!t.faults().enabled() || step == 0) throw;
  }
  CompressedBuffer pristine;
  pristine.bytes = t.refetch(src, kTagReduceScatter + step - 1,
                             simmpi::Comm::Refetch::kRawFallback, partial.size_bytes());
  std::vector<float> decoded(partial.size());
  decompress_charged(t, pristine, decoded, config);
  t.pool().release(std::move(pristine.bytes));
  std::memcpy(partial.data(), own.data(), own.size_bytes());
  reduce_into(t, partial, decoded, 0, config, config.mode);
  return compress_block(t, partial, config);
}

template <Transport T>
Task<void> ccoll_reduce_scatter(T t, std::span<const float> input, std::vector<float>& out_block,
                                const CollectiveConfig& config) {
  const int size = t.size();
  const int rank = t.rank();
  std::vector<float> acc = working_copy(t, input, config);

  // The per-round compressed send buffer ping-pongs between the pool and
  // the wire, and received streams are recycled after decode, so warm
  // rounds allocate nothing.
  BufferPool& pool = t.pool();
  std::vector<float> decoded;
  for (int step = 0; step < size - 1; ++step) {
    const Range send_r = ring_block_range(acc.size(), size, rs_send_block(rank, step, size));
    const Range recv_r = ring_block_range(acc.size(), size, rs_recv_block(rank, step, size));

    // DOC round, send side: compress the partially reduced block.  send()
    // copies the payload synchronously, so the stream's storage goes back
    // to the pool right away.
    CompressedBuffer to_send = compress_doc_partial(
        t, std::span<float>(acc).subspan(send_r.begin, send_r.size()),
        input.subspan(send_r.begin, send_r.size()), ring_prev(rank, size), step, config);
    t.send(ring_next(rank, size), kTagReduceScatter + step, to_send.span());
    pool.release(std::move(to_send.bytes));

    // DOC round, receive side: decompress, then reduce over floats.  A
    // degraded block already arrives as floats (sender-side decode charged
    // by the healing path), so it skips the local decompression.
    CheckedBlock received = co_await recv_checked_block(t, ring_prev(rank, size),
                                                        kTagReduceScatter + step, recv_r.size(),
                                                        config);
    if (received.degraded) {
      decoded = std::move(received.raw);
    } else {
      decoded.resize(recv_r.size());
      doc_decompress(t, received.compressed, decoded, config);
      pool.release(std::move(received.compressed.bytes));
    }

    reduce_into(t, acc, decoded, recv_r.begin, config, config.mode);
  }

  const Range owned = ring_block_range(acc.size(), size, rs_owned_block(rank, size));
  out_block.assign(acc.begin() + static_cast<ptrdiff_t>(owned.begin),
                   acc.begin() + static_cast<ptrdiff_t>(owned.end));
}

/// C-Coll's ring allgather of this rank's owned block `my_block`, already
/// compressed into `own`: compressed once, every hop forwards compressed
/// bytes, and the N-1 received blocks are decompressed at the end.
template <Transport T>
Task<void> ccoll_allgather_stream(T t, std::span<const float> my_block, CompressedBuffer own,
                                  size_t total_elements, std::vector<float>& out_full,
                                  const CollectiveConfig& config) {
  const int size = t.size();
  const int rank = t.rank();
  out_full.assign(total_elements, 0.0f);
  const int own_idx = rs_owned_block(rank, size);
  const Range own_r = ring_block_range(total_elements, size, own_idx);
  if (my_block.size() != own_r.size()) {
    throw Error("ccoll_allgather: my_block size does not match the owned block");
  }
  std::memcpy(out_full.data() + own_r.begin, my_block.data(), my_block.size_bytes());

  std::vector<CompressedBuffer> blocks(static_cast<size_t>(size));
  blocks[static_cast<size_t>(own_idx)] = std::move(own);

  for (int step = 0; step < size - 1; ++step) {
    const size_t send_idx = static_cast<size_t>(ag_send_block(rank, step, size));
    const int recv_idx = ag_recv_block(rank, step, size);
    t.send(ring_next(rank, size), kTagAllgather + step, blocks[send_idx].span());
    const Range recv_r = ring_block_range(total_elements, size, recv_idx);
    blocks[static_cast<size_t>(recv_idx)] = forwardable(
        t,
        co_await recv_checked_block(t, ring_prev(rank, size), kTagAllgather + step,
                                    recv_r.size(), config),
        config);
  }

  // Decompress the N-1 received chunks (own block is already in place),
  // recycling every stream's storage as it is consumed.
  for (int b = 0; b < size; ++b) {
    if (b != own_idx) {
      const Range r = ring_block_range(total_elements, size, b);
      doc_decompress(t, blocks[static_cast<size_t>(b)],
                     std::span<float>(out_full).subspan(r.begin, r.size()), config);
    }
    t.pool().release(std::move(blocks[static_cast<size_t>(b)].bytes));
  }
}

template <Transport T>
Task<void> ccoll_allgather(T t, std::span<const float> my_block, size_t total_elements,
                           std::vector<float>& out_full, const CollectiveConfig& config) {
  co_await ccoll_allgather_stream(t, my_block, compress_block(t, my_block, config),
                                  total_elements, out_full, config);
}

/// The reduce-scatter, then the allgather of the owned block, which the
/// last step reduced from ring_prev's stream: compressed as a DOC partial
/// sent at step N-1.
template <Transport T>
Task<void> ccoll_allreduce(T t, std::span<const float> input, std::vector<float>& out_full,
                           const CollectiveConfig& config) {
  const int size = t.size();
  const int rank = t.rank();
  std::vector<float> block;
  co_await ccoll_reduce_scatter(t, input, block, config);
  const Range owned = ring_block_range(input.size(), size, rs_owned_block(rank, size));
  CompressedBuffer own = compress_doc_partial(t, std::span<float>(block),
                                              input.subspan(owned.begin, owned.size()),
                                              ring_prev(rank, size), size - 1, config);
  co_await ccoll_allgather_stream(t, block, std::move(own), input.size(), out_full, config);
}

// ---------------------------------------------------------------------------
// hZCCL stack: compress once, reduce in the compressed domain (HPR),
// decompress once.
// ---------------------------------------------------------------------------

/// Homomorphic ring reduce-scatter over an explicit member list (virtual
/// ranks, members[idx] is this rank), starting from this rank's input
/// already compressed into one block per member (compress_all_blocks over
/// `total_elements` values); returns the reduced owned block still
/// compressed.  The flat collective passes the identity list; the two-level
/// allreduce passes the node leaders, so the inter-node ring runs unchanged
/// over a subset.
template <Transport T>
Task<CompressedBuffer> reduce_scatter_compressed_members(T t, std::vector<CompressedBuffer> blocks,
                                                         size_t total_elements,
                                                         const std::vector<int>& members,
                                                         int idx, const CollectiveConfig& config,
                                                         HzPipelineStats* pipeline_stats) {
  const int n = static_cast<int>(members.size());
  const int next = members[static_cast<size_t>(ring_next(idx, n))];
  const int prev = members[static_cast<size_t>(ring_prev(idx, n))];
  // Every per-round buffer — compressed partials, hz_add outputs, degraded
  // re-encodes — cycles through the transport's pool, so warm rounds
  // perform no heap allocation.
  std::vector<float> scratch;  // degraded-round scratch, reused across rounds

  for (int step = 0; step < n - 1; ++step) {
    CompressedBuffer& sent = blocks[static_cast<size_t>(rs_send_block(idx, step, n))];
    const int recv_idx = rs_recv_block(idx, step, n);
    t.send(next, kTagReduceScatter + step, sent.span());
    // The ring schedule never touches the sent block again on this rank,
    // and send() copies the payload synchronously, so its storage can be
    // recycled immediately.
    t.pool().release(std::move(sent.bytes));

    const Range recv_r = ring_block_range(total_elements, n, recv_idx);
    co_await combine_from(t, blocks[static_cast<size_t>(recv_idx)], recv_r.size(), prev,
                          kTagReduceScatter + step, config, pipeline_stats, scratch);
  }

  co_return std::move(blocks[static_cast<size_t>(rs_owned_block(idx, n))]);
}

/// Ring allgather over already-compressed chunks, over a member list like
/// the reduce-scatter above.  No compression here: the input is already
/// compressed (the co-design's second saving).  Chunk sizes ride along with
/// the self-sizing messages, standing in for C-Coll's explicit size
/// synchronization.  The own block is copied into pooled storage so every
/// entry of `blocks` is owned uniformly and recycled once decoded.
template <Transport T>
Task<void> allgather_compressed_members(T t, const CompressedBuffer& my_block,
                                        size_t total_elements, std::vector<float>& out_full,
                                        const std::vector<int>& members, int idx,
                                        const CollectiveConfig& config) {
  const int n = static_cast<int>(members.size());
  const int next = members[static_cast<size_t>(ring_next(idx, n))];
  const int prev = members[static_cast<size_t>(ring_prev(idx, n))];
  std::vector<CompressedBuffer> blocks(static_cast<size_t>(n));
  CompressedBuffer& own = blocks[static_cast<size_t>(rs_owned_block(idx, n))];
  own.bytes = t.pool().acquire(my_block.bytes.size());
  own.bytes.assign(my_block.bytes.begin(), my_block.bytes.end());

  for (int step = 0; step < n - 1; ++step) {
    const size_t send_idx = static_cast<size_t>(ag_send_block(idx, step, n));
    const int recv_idx = ag_recv_block(idx, step, n);
    t.send(next, kTagAllgather + step, blocks[send_idx].span());
    const Range recv_r = ring_block_range(total_elements, n, recv_idx);
    blocks[static_cast<size_t>(recv_idx)] = forwardable(
        t, co_await recv_checked_block(t, prev, kTagAllgather + step, recv_r.size(), config),
        config);
  }
  decode_all_blocks(t, blocks, total_elements, out_full, config);
}

template <Transport T>
Task<CompressedBuffer> hzccl_reduce_scatter_compressed(T t, std::span<const float> input,
                                                       const CollectiveConfig& config,
                                                       HzPipelineStats* pipeline_stats) {
  require_sum(config);
  const std::vector<int> members = identity_members(t.size());
  co_return co_await reduce_scatter_compressed_members(
      t, compress_all_blocks(t, input, t.size(), config), input.size(), members, t.rank(), config,
      pipeline_stats);
}

template <Transport T>
Task<void> hzccl_reduce_scatter(T t, std::span<const float> input, std::vector<float>& out_block,
                                const CollectiveConfig& config,
                                HzPipelineStats* pipeline_stats) {
  CompressedBuffer owned = co_await hzccl_reduce_scatter_compressed(t, input, config,
                                                                    pipeline_stats);
  const Range r = ring_block_range(input.size(), t.size(), rs_owned_block(t.rank(), t.size()));
  out_block.resize(r.size());
  final_verify_stream(t, owned, config);
  decompress_charged(t, owned, out_block, config);
  t.pool().release(std::move(owned.bytes));
}

template <Transport T>
Task<void> hzccl_allgather_compressed(T t, const CompressedBuffer& my_block,
                                      size_t total_elements, std::vector<float>& out_full,
                                      const CollectiveConfig& config) {
  const std::vector<int> members = identity_members(t.size());
  co_await allgather_compressed_members(t, my_block, total_elements, out_full, members, t.rank(),
                                        config);
}

/// The hZCCL allgather from floats: compress the owned block once (CPR),
/// then forward compressed traffic — what a blocking caller composes out of
/// fz_compress + hzccl_allgather_compressed.
template <Transport T>
Task<void> hzccl_allgather(T t, std::span<const float> my_block, size_t total_elements,
                           std::vector<float>& out_full, const CollectiveConfig& config) {
  CompressedBuffer own = compress_block(t, my_block, config);
  co_await hzccl_allgather_compressed(t, own, total_elements, out_full, config);
  t.pool().release(std::move(own.bytes));
}

template <Transport T>
Task<void> hzccl_allreduce(T t, std::span<const float> input, std::vector<float>& out_full,
                           const CollectiveConfig& config, HzPipelineStats* pipeline_stats) {
  CompressedBuffer owned = co_await hzccl_reduce_scatter_compressed(t, input, config,
                                                                    pipeline_stats);
  co_await hzccl_allgather_compressed(t, owned, input.size(), out_full, config);
  t.pool().release(std::move(owned.bytes));
}

template <Transport T>
Task<void> hzccl_allreduce_recursive_doubling(T t, std::span<const float> input,
                                              std::vector<float>& out_full,
                                              const CollectiveConfig& config,
                                              HzPipelineStats* pipeline_stats) {
  require_sum(config);
  const int rank = t.rank();
  std::vector<float> scratch;

  // One whole-vector stream per rank.  fZ-light quantizes each element
  // independently of its neighbours and hz_add sums the quantized integers
  // exactly, so exchanging whole-vector streams instead of ring chunks
  // reaches a bit-identical result — only the schedule changes.
  CompressedBuffer acc = compress_block(t, input, config);
  const DoublingLayout d = doubling_layout(rank, t.size());
  const int fold_tag = kTagDoubling;
  const int unfold_tag = kTagDoubling + 4096;

  // Fold phase: even ranks of each folded pair hand their stream to the
  // odd one.
  if (d.folded_pair) {
    if (rank % 2 == 0) {
      t.send(rank + 1, fold_tag, acc.span());
    } else {
      co_await combine_from(t, acc, input.size(), rank - 1, fold_tag, config, pipeline_stats,
                            scratch);
    }
  }

  if (d.active >= 0) {
    int step = 0;
    for (int mask = 1; mask < d.p2; mask <<= 1, ++step) {
      const int partner = d.real_rank(d.active ^ mask);
      t.send(partner, kTagDoubling + 1 + step, acc.span());
      co_await combine_from(t, acc, input.size(), partner, kTagDoubling + 1 + step, config,
                            pipeline_stats, scratch);
    }
  }

  // Unfold phase: the folded even ranks receive the finished stream.
  if (d.folded_pair) {
    if (rank % 2 == 0) {
      CheckedBlock received =
          co_await recv_checked_block(t, rank + 1, unfold_tag, input.size(), config);
      t.pool().release(std::move(acc.bytes));
      if (received.degraded) {
        out_full = std::move(received.raw);
        co_return;
      }
      acc = std::move(received.compressed);
    } else {
      t.send(rank - 1, unfold_tag, acc.span());
    }
  }

  out_full.resize(input.size());
  final_verify_stream(t, acc, config);
  decompress_charged(t, acc, out_full, config);
  t.pool().release(std::move(acc.bytes));
}

template <Transport T>
Task<void> hzccl_allreduce_rabenseifner(T t, std::span<const float> input,
                                        std::vector<float>& out_full,
                                        const CollectiveConfig& config,
                                        HzPipelineStats* pipeline_stats) {
  require_sum(config);
  const int size = t.size();
  const int rank = t.rank();
  if (size == 1 || (size & (size - 1)) != 0) {
    // Non-power-of-two: MPICH falls back; so do we, to the ring.
    co_await hzccl_allreduce(t, input, out_full, config, pipeline_stats);
    co_return;
  }

  // Recursive halving over *ring-block indices*: the input is chunked
  // exactly as the flat ring chunks it (one stream per block), so every
  // exchanged stream — and therefore the decompressed result — matches the
  // ring bit for bit; only the schedule differs (log2 P halving exchanges
  // instead of P-1 ring steps).
  std::vector<CompressedBuffer> blocks = compress_all_blocks(t, input, size, config);
  std::vector<float> scratch;
  const auto tag_of = [size](int step, int block) { return kTagHalving + step * size + block; };

  int blo = 0;
  int bhi = size;
  std::vector<std::pair<int, int>> splits;  // block range before each split
  int step = 0;
  for (int mask = size / 2; mask >= 1; mask >>= 1, ++step) {
    const int partner = rank ^ mask;
    const int mid = blo + (bhi - blo) / 2;
    splits.emplace_back(blo, bhi);
    const bool keep_low = rank < partner;
    const int send_lo = keep_low ? mid : blo;
    const int send_hi = keep_low ? bhi : mid;
    for (int b = send_lo; b < send_hi; ++b) {
      t.send(partner, tag_of(step, b), blocks[static_cast<size_t>(b)].span());
      t.pool().release(std::move(blocks[static_cast<size_t>(b)].bytes));
    }
    blo = keep_low ? blo : mid;
    bhi = keep_low ? mid : bhi;
    for (int b = blo; b < bhi; ++b) {
      const Range r = ring_block_range(input.size(), size, b);
      co_await combine_from(t, blocks[static_cast<size_t>(b)], r.size(), partner,
                            tag_of(step, b), config, pipeline_stats, scratch);
    }
  }

  // Recursive-doubling allgather: walk the splits back, each exchange
  // restoring the sibling block range of the enclosing segment.
  for (int mask = 1; mask < size; mask <<= 1, ++step) {
    const int partner = rank ^ mask;
    const auto [parent_lo, parent_hi] = splits.back();
    splits.pop_back();
    for (int b = blo; b < bhi; ++b) {
      t.send(partner, tag_of(step, b), blocks[static_cast<size_t>(b)].span());
    }
    const int recv_lo = blo == parent_lo ? bhi : parent_lo;
    const int recv_hi = blo == parent_lo ? parent_hi : blo;
    for (int b = recv_lo; b < recv_hi; ++b) {
      const Range r = ring_block_range(input.size(), size, b);
      blocks[static_cast<size_t>(b)] = forwardable(
          t, co_await recv_checked_block(t, partner, tag_of(step, b), r.size(), config), config);
    }
    blo = parent_lo;
    bhi = parent_hi;
  }

  decode_all_blocks(t, blocks, input.size(), out_full, config);
}

/// The two-level hZ leader's inter-node ring blocks: the node-local sum
/// `acc` compressed once.  Members ship raw floats, which carry no decode
/// layer (and, with verify off, no digest trailer), so under a link-fault
/// plan a payload scribbled on the wire can reach the sum and push it out of
/// the quantization domain.  Healed the way a stream that does not decode
/// is: before any inter-node send, the leader refetches each member's
/// pristine intra-node payload (Refetch::kRawFallback), rebuilds the sum and
/// compresses once more; a second failure — the data itself is out of
/// domain — propagates.  Without a fault plan this is compress_all_blocks.
template <Transport T>
std::vector<CompressedBuffer> compress_leader_blocks(T& t, std::span<const float> input,
                                                     const NodeGroups& g, std::vector<float>& acc,
                                                     const CollectiveConfig& config) {
  const int nblocks = static_cast<int>(g.leaders.size());
  try {
    return compress_all_blocks(t, acc, nblocks, config);
  } catch (const Error&) {
    if (!t.faults().enabled()) throw;
  }
  acc = working_copy(t, input, config);
  std::vector<float> pristine(input.size());
  for (size_t m = 1; m < g.node_members.size(); ++m) {
    const int member = g.node_members[m];
    refetch_pristine_floats(t, member, kTagIntraReduce + member, pristine);
    reduce_into(t, acc, pristine, 0, config, config.mode);
  }
  return compress_all_blocks(t, acc, nblocks, config);
}

/// hZCCL two-level: the compressed ring among the node leaders — the flat
/// algorithm verbatim over the leader subset.  The two-level variant
/// re-quantizes the node-local float sums (reduced at config.mode), so it is
/// differential-equal to the flat ring, not bit-equal.
template <Transport T>
Task<void> hzccl_allreduce_two_level(T t, std::span<const float> input,
                                     std::vector<float>& out_full, const CollectiveConfig& config,
                                     HzPipelineStats* pipeline_stats) {
  require_sum(config);
  const NodeGroups g = node_groups(t.net().topo, t.group(), t.rank());
  std::vector<float> acc;
  if (!co_await intra_node_reduce(t, input, g, acc, out_full, config, config.mode)) co_return;
  if (g.leaders.size() <= 1) {
    out_full = std::move(acc);
  } else {
    CompressedBuffer owned = co_await reduce_scatter_compressed_members(
        t, compress_leader_blocks(t, input, g, acc, config), input.size(), g.leaders,
        g.my_leader_idx, config, pipeline_stats);
    co_await allgather_compressed_members(t, owned, acc.size(), out_full, g.leaders,
                                          g.my_leader_idx, config);
    t.pool().release(std::move(owned.bytes));
  }
  intra_node_bcast(t, g, out_full, config, config.mode);
}

// ---------------------------------------------------------------------------
// Data movement (movement.hpp): binomial-tree broadcast and gather.  The
// raw bodies ship floats with the raw stack's digest trailer; the
// compressed broadcast compresses once at the root, forwards compressed
// bytes on every hop and decompresses once per rank.
// ---------------------------------------------------------------------------

inline int relative_rank(int rank, int root, int size) {
  return ((rank - root) % size + size) % size;
}
inline int absolute_rank(int relative, int root, int size) { return (relative + root) % size; }

/// Binomial-tree receive step: returns the relative parent, or -1 for the
/// root, and leaves `mask` at the level below this rank (its send levels).
inline int binomial_parent(int relative, int size, int& mask) {
  mask = 1;
  while (mask < size) {
    if (relative & mask) return relative - mask;
    mask <<= 1;
  }
  return -1;
}

template <Transport T>
Task<void> raw_bcast(T t, std::vector<float>& data, int root, const CollectiveConfig& config) {
  const int size = t.size();
  const int relative = relative_rank(t.rank(), root, size);
  int mask = 0;
  const int parent = binomial_parent(relative, size, mask);
  if (parent >= 0) {
    const int parent_rank = absolute_rank(parent, root, size);
    data = floats_from_bytes(co_await t.recv(parent_rank, kTagBcast), "raw_bcast payload");
    // Recheck before forwarding, so a corrupt payload never propagates down
    // the broadcast tree.
    if (config.verify != VerifyPolicy::kOff) {
      co_await verify_floats(t, parent_rank, kTagBcast, data, config, Mode::kSingleThread);
    }
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    const int child = relative + mask;
    if (child < size) {
      send_floats_checked(t, absolute_rank(child, root, size), kTagBcast, data, config,
                          Mode::kSingleThread);
    }
  }
}

template <Transport T>
Task<void> ccoll_bcast(T t, std::vector<float>& data, int root, const CollectiveConfig& config) {
  const int size = t.size();
  const int relative = relative_rank(t.rank(), root, size);
  CompressedBuffer compressed;
  if (relative == 0) compressed = compress_block(t, data, config);

  int mask = 0;
  const int parent = binomial_parent(relative, size, mask);
  if (parent >= 0) {
    const int parent_rank = absolute_rank(parent, root, size);
    compressed.bytes = co_await t.recv(parent_rank, kTagBcast);
    // Heal before forwarding, so a corrupt stream never propagates down the
    // broadcast tree; a pristine stream forwards as it is.
    (void)heal_received_stream(t, parent_rank, kTagBcast, compressed.bytes, 0, config);
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    const int child = relative + mask;
    if (child < size) t.send(absolute_rank(child, root, size), kTagBcast, compressed.span());
  }

  // Everyone (root included) materializes the decompressed field, so all
  // ranks end bit-identical — the property applications actually rely on.
  // Per-round verification already rechecked the stream on receive.
  if (config.verify == VerifyPolicy::kFinal) final_verify_stream(t, compressed, config);
  data.resize(parse_fz(compressed.bytes).num_elements());
  decompress_charged(t, compressed, data, config);
  t.pool().release(std::move(compressed.bytes));
}

template <Transport T>
Task<void> raw_gather(T t, std::span<const float> mine, int root, std::vector<float>& out,
                      const CollectiveConfig& config) {
  const int size = t.size();
  const int relative = relative_rank(t.rank(), root, size);
  const size_t chunk = mine.size();

  // Subtree buffer in relative-rank order, starting with this rank's data.
  std::vector<float> buffer(mine.begin(), mine.end());
  for (int mask = 1; mask < size; mask <<= 1) {
    if (relative & mask) {
      send_floats_checked(t, absolute_rank(relative - mask, root, size), kTagGather + mask,
                          buffer, config, Mode::kSingleThread);
      break;
    }
    const int child = relative + mask;
    if (child < size) {
      const int child_rank = absolute_rank(child, root, size);
      const std::vector<uint8_t> payload = co_await t.recv(child_rank, kTagGather + mask);
      const size_t stride = chunk * sizeof(float);
      // Guard the stride before the modulo: with empty contributions any
      // nonempty payload is malformed, and chunk == 0 must not divide by 0.
      if (stride == 0 ? !payload.empty() : payload.size() % stride != 0) {
        throw Error("raw_gather: ranks contributed unequal chunk sizes");
      }
      std::vector<float> received = floats_from_bytes(payload, "raw_gather payload");
      if (config.verify != VerifyPolicy::kOff) {
        co_await verify_floats(t, child_rank, kTagGather + mask, received, config,
                               Mode::kSingleThread);
      }
      buffer.insert(buffer.end(), received.begin(), received.end());
    }
  }

  out.clear();
  if (relative == 0) {
    // buffer holds contributions of relative ranks 0..size-1 in order;
    // rotate into absolute rank order.
    out.resize(chunk * static_cast<size_t>(size));
    for (int v = 0; v < size; ++v) {
      const int rank = absolute_rank(v, root, size);
      std::memcpy(out.data() + static_cast<size_t>(rank) * chunk,
                  buffer.data() + static_cast<size_t>(v) * chunk, chunk * sizeof(float));
    }
  }
}

}  // namespace hzccl::coll::body
