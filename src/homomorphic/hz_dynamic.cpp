#include "hzccl/homomorphic/hz_dynamic.hpp"

#include <algorithm>
#include <limits>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/quantize.hpp"
#include "hzccl/integrity/sdc.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

/// Replay the compute-side SDC injection point over the first `blocks`
/// block triples of a combine (operands a and b, output out): each
/// pipeline-4 block (both operand blocks non-constant) goes to the armed
/// injector as its merged magnitude/sign split, decoded back from out, and
/// a lane the injector sign-flips is flipped in out's sign plane.  A flip
/// keeps the block's code length and size, so this equals poisoning the
/// split between the overflow guard and the encode, block by block, with
/// the same counter sequence.
HZCCL_COLD void replay_sdc_poison(integrity::SdcInjector& inj, std::span<const uint8_t> ca,
                                  std::span<const uint8_t> cb, uint8_t* out,
                                  const uint8_t* out_end, size_t chunk_elems, uint32_t block_len,
                                  uint64_t blocks) {
  const uint8_t* pa = ca.data();
  const uint8_t* pb = cb.data();
  int32_t r[kMaxWireBlockLen];
  uint32_t mags[kMaxWireBlockLen];
  uint32_t signs[kMaxWireBlockLen];
  uint32_t before[kMaxWireBlockLen];
  size_t remaining = chunk_elems;
  for (uint64_t k = 0; k < blocks; ++k) {
    const size_t n = std::min<size_t>(block_len, remaining);
    const size_t size_a = peek_block_size(pa, ca.data() + ca.size(), n);
    const size_t size_b = peek_block_size(pb, cb.data() + cb.size(), n);
    const size_t size_o = peek_block_size(out, out_end, n);
    if (*pa != 0 && *pb != 0) {
      decode_block(out, out_end, n, r);
      for (size_t i = 0; i < n; ++i) {
        mags[i] = static_cast<uint32_t>(r[i] < 0 ? -int64_t{r[i]} : r[i]);
        signs[i] = r[i] < 0 ? 1u : 0u;
      }
      std::copy(signs, signs + n, before);
      if (inj.maybe_poison_combine(mags, signs, n)) {
        for (size_t i = 0; i < n; ++i) {
          if (signs[i] != before[i]) out[1 + i / 8] ^= static_cast<uint8_t>(1u << (i % 8));
        }
      }
    }
    pa += size_a;
    pb += size_b;
    out += size_o;
    remaining -= n;
  }
}

/// The exception of a combine_chunk slot fault: the one peek_block_size,
/// decode_block or encode_block_prepared raises for the same block.
[[noreturn]] HZCCL_COLD void raise_combine_fault(kernels::ChunkStatus st) {
  switch (st) {
    case kernels::ChunkStatus::kEmptyBlock:
      detail::raise_parse("peek_block_size: empty input");
    case kernels::ChunkStatus::kBadCodeLength:
      detail::raise_parse("peek_block_size: bad code length");
    case kernels::ChunkStatus::kTruncatedBlock:
    case kernels::ChunkStatus::kTruncatedRaw:
      detail::raise_parse("peek_block_size: truncated block");
    case kernels::ChunkStatus::kRawInMerge:
      detail::raise_parse("decode_block: raw block in a residual-only context");
    case kernels::ChunkStatus::kOverflow:
      detail::raise_overflow("residual sum overflows the 31-bit magnitude domain");
    case kernels::ChunkStatus::kCopyCapacity:
      detail::raise_capacity("hz combine: chunk output capacity exceeded");
    case kernels::ChunkStatus::kNegateCapacity:
      detail::raise_capacity("hz negate: block copy exceeds output capacity");
    case kernels::ChunkStatus::kEncodeCapacity:
      detail::raise_capacity("encode_block: encoded block exceeds output capacity");
    case kernels::ChunkStatus::kTrailingBytes:
      detail::raise_format("hz combine: chunk payload longer than its block grid");
    default:
      detail::raise_error("hz combine: unexpected slot status");
  }
}

/// Chain-tracking per-chunk combine (a + sign_b * b) for operand pairs with
/// raw fallback blocks.  Both operands' absolute quantized chains are
/// tracked so a raw block — which sits outside the chains — can be combined
/// in the float domain (raw operand values verbatim, residual operand values
/// dequantized from the running chain); residual-only block pairs keep the
/// exact integer path, with any chain drift a raw output block hid from the
/// decoder folded into their first residual.
HZCCL_HOT size_t combine_chunk_raw(std::span<const uint8_t> ca, std::span<const uint8_t> cb,
                         size_t chunk_elems, uint32_t block_len, int32_t outlier_a,
                         int32_t outlier_b, int sign_b, const Quantizer& quant,
                         uint8_t* out, size_t out_capacity, HzPipelineStats& stats,
                         integrity::Digest* digest) {
  uint8_t* const out_begin = out;
  const uint8_t* const out_end = out + out_capacity;
  const uint8_t* pa = ca.data();
  const uint8_t* const ea = pa + ca.size();
  const uint8_t* pb = cb.data();
  const uint8_t* const eb = pb + cb.size();

  int32_t ra[kMaxWireBlockLen];
  int32_t rb[kMaxWireBlockLen];
  float fa[kMaxWireBlockLen];
  float fb[kMaxWireBlockLen];
  float fsum[kMaxWireBlockLen];
  uint32_t mags[kMaxWireBlockLen];
  uint32_t signs[kMaxWireBlockLen];

  int64_t qa = outlier_a;
  int64_t qb = outlier_b;
  int64_t q_out = static_cast<int64_t>(outlier_a) + static_cast<int64_t>(sign_b) * outlier_b;

  size_t remaining = chunk_elems;
  while (remaining > 0) {
    const size_t n = std::min<size_t>(block_len, remaining);
    const size_t size_a = peek_block_size(pa, ea, n);
    const size_t size_b = peek_block_size(pb, eb, n);
    const bool raw_a = *pa == kRawBlockMarker;
    const bool raw_b = *pb == kRawBlockMarker;

    if (!raw_a && !raw_b) {
      decode_block(pa, ea, n, ra);
      decode_block(pb, eb, n, rb);
      // ABFT digest: the output chain value q_out at each element is what
      // the decoder reconstructs, so the digest is *recomputed* from the
      // tracked chain here.  Folding operand digests algebraically would be
      // wrong when the operands' raw-block patterns differ — a residual
      // operand's contribution at positions that become raw output blocks
      // must not appear in the result's digest.  The chain values are
      // summed in locals and added to the digest once per block.
      const uint64_t base = static_cast<uint64_t>(chunk_elems - remaining) + 1;
      uint64_t dsum = 0;
      uint64_t dwsum = 0;
      uint32_t max_mag = 0;
      for (size_t i = 0; i < n; ++i) {
        qa += ra[i];
        qb += rb[i];
        const int64_t target = qa + static_cast<int64_t>(sign_b) * qb;
        const int64_t s = target - q_out;
        if (s > std::numeric_limits<int32_t>::max() ||
            s < std::numeric_limits<int32_t>::min()) {
          detail::raise_overflow("residual sum overflows the 31-bit magnitude domain");
        }
        q_out = target;
        dsum += static_cast<uint64_t>(q_out);
        dwsum += (base + i) * static_cast<uint64_t>(q_out);
        const uint32_t neg = static_cast<uint32_t>(s < 0);
        const uint32_t mag = neg ? static_cast<uint32_t>(-s) : static_cast<uint32_t>(s);
        mags[i] = mag;
        signs[i] = neg;
        max_mag |= mag;
      }
      if (digest) *digest += integrity::Digest{dsum, dwsum};
      if (max_mag == 0) {
        if (out >= out_end) detail::raise_capacity("hz combine: chunk output capacity exceeded");
        *out++ = 0;
        ++stats.p1;
      } else {
        out = encode_block_prepared(mags, signs, n, code_length_for(max_mag), out, out_end);
        ++stats.p4;
        stats.p4_elements += n;
      }
    } else {
      if (raw_a) {
        decode_raw_block(pa, ea, n, fa);
      } else {
        decode_block(pa, ea, n, ra);
        for (size_t i = 0; i < n; ++i) {
          qa += ra[i];
          fa[i] = quant.dequantize(qa);
        }
      }
      if (raw_b) {
        decode_raw_block(pb, eb, n, fb);
      } else {
        decode_block(pb, eb, n, rb);
        for (size_t i = 0; i < n; ++i) {
          qb += rb[i];
          fb[i] = quant.dequantize(qb);
        }
      }
      for (size_t i = 0; i < n; ++i) {
        fsum[i] = static_cast<float>(static_cast<double>(fa[i]) +
                                     sign_b * static_cast<double>(fb[i]));
      }
      out = encode_raw_block(fsum, n, out, out_end);
      ++stats.raw;
    }

    pa += size_a;
    pb += size_b;
    remaining -= n;
  }
  if (pa != ea || pb != eb) {
    detail::raise_format("hz combine: chunk payload longer than its block grid");
  }
  return static_cast<size_t>(out - out_begin);
}

}  // namespace

namespace detail {

/// The one homomorphic chunk combine (paper §III-C), declared in the header:
/// one combine_chunk slot call walks both chains — pipelines 1-3 write a
/// constant block or copy an operand's block (negated for a difference),
/// pipeline 4 decodes both blocks, merges them in int64 and re-encodes the
/// sum without storing residuals.  Operand payloads are untrusted: the slot
/// validates every block and checks every write — copied or re-encoded —
/// against the destination's worst-case capacity before it happens; a fault
/// becomes the exception the per-block walk raised.  An armed SdcInjector
/// poisons the finished pipeline-4 blocks afterwards (replay_sdc_poison); a
/// disarmed one costs one test.
HZCCL_HOT size_t combine_chunk(std::span<const uint8_t> ca, std::span<const uint8_t> cb,
                               size_t chunk_elems, uint32_t block_len, int sign, uint8_t* out,
                               size_t out_capacity, HzPipelineStats& stats) {
  const kernels::CombineChunkResult res = kernels::active().combine_chunk(
      ca.data(), ca.size(), cb.data(), cb.size(), chunk_elems, block_len, sign, out, out_capacity);
  if (integrity::SdcInjector* inj = integrity::sdc_injector(); inj) {
    replay_sdc_poison(*inj, ca, cb, out, out + out_capacity, chunk_elems, block_len,
                      res.blocks());
  }
  if (res.status != kernels::ChunkStatus::kOk) raise_combine_fault(res.status);
  stats.p1 += res.p1;
  stats.p2 += res.p2;
  stats.p3 += res.p3;
  stats.p4 += res.p4;
  stats.copied_bytes += res.copied_bytes;
  stats.p4_elements += res.p4_elements;
  return res.bytes;
}

CompressedBuffer hz_combine(const FzView& a, const FzView& b, int sign, HzPipelineStats* stats,
                            int num_threads, BufferPool* pool) {
  require_layout_compatible(a, b);
  const bool raw = has_raw_blocks(a.header) || has_raw_blocks(b.header);
  const Quantizer quant(a.error_bound());
  // Pipeline 4 can grow a block's code length by one bit, but the
  // assembler's global worst case (code length 31) still bounds every
  // outcome.  Raw operand blocks always produce raw output blocks, so the
  // result carries the flag whenever either operand does.
  FzHeader header = a.header;
  header.flags |= static_cast<uint16_t>(b.header.flags & kFlagHasRawBlocks);
  // Digests survive only when both operands carry them.  With no raw blocks
  // the output chain is the element-wise combination of the operand chains,
  // so digest(a + sign * b) = digest(a) + sign * digest(b) per chunk — O(1),
  // no decode; the chain-tracking raw combine recomputes them instead.
  const bool digests = a.has_digests() && b.has_digests();
  if (!digests) header.flags &= static_cast<uint16_t>(~kFlagHasDigests);
  // Tables before the assembler's chunk regions: taken after them, a table
  // could need an arena block of its own.
  ArenaScope scratch;
  const std::span<HzPipelineStats> chunk_stats = scratch.alloc<HzPipelineStats>(a.num_chunks());
  CompressedBuffer result = assemble_chunks(
      header, num_threads, pool, [&](uint32_t c, Range r, std::span<uint8_t> out) {
        ChunkResult res;
        res.outlier = checked_outlier(static_cast<int64_t>(a.chunk_outliers[c]) +
                                      static_cast<int64_t>(sign) * b.chunk_outliers[c]);
        if (raw) {
          if (r.size() > 0) {
            res.size = combine_chunk_raw(a.chunk_payload(c), b.chunk_payload(c), r.size(),
                                         a.block_len(), a.chunk_outliers[c], b.chunk_outliers[c],
                                         sign, quant, out.data(), out.size(), chunk_stats[c],
                                         digests ? &res.digest : nullptr);
          }
          return res;
        }
        if (r.size() > 0) {
          res.size = combine_chunk(a.chunk_payload(c), b.chunk_payload(c), r.size(),
                                   a.block_len(), sign, out.data(), out.size(), chunk_stats[c]);
        }
        if (digests) {
          res.digest = a.chunk_digest(c) + static_cast<int64_t>(sign) * b.chunk_digest(c);
        }
        return res;
      });
  if (stats) {
    for (const auto& s : chunk_stats) *stats += s;
  }
  return result;
}

}  // namespace detail

double HzPipelineStats::percent(int pipeline) const {
  const uint64_t total = blocks();
  if (total == 0) return 0.0;
  uint64_t v = 0;
  switch (pipeline) {
    case 0: v = raw; break;
    case 1: v = p1; break;
    case 2: v = p2; break;
    case 3: v = p3; break;
    case 4: v = p4; break;
    default: throw Error("HzPipelineStats::percent: pipeline must be 0..4");
  }
  return 100.0 * static_cast<double>(v) / static_cast<double>(total);
}

HzPipelineStats& HzPipelineStats::operator+=(const HzPipelineStats& o) {
  p1 += o.p1;
  p2 += o.p2;
  p3 += o.p3;
  p4 += o.p4;
  copied_bytes += o.copied_bytes;
  p4_elements += o.p4_elements;
  raw += o.raw;
  return *this;
}

CompressedBuffer hz_add(const FzView& a, const FzView& b, HzPipelineStats* stats,
                        int num_threads, BufferPool* pool) {
  return detail::hz_combine(a, b, +1, stats, num_threads, pool);
}

CompressedBuffer hz_add(const CompressedBuffer& a, const CompressedBuffer& b,
                        HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  return hz_add(parse_fz(a.bytes), parse_fz(b.bytes), stats, num_threads, pool);
}

}  // namespace hzccl
