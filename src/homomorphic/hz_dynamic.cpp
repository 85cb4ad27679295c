#include "hzccl/homomorphic/hz_dynamic.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/quantize.hpp"
#include "hzccl/integrity/sdc.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

constexpr uint32_t kMaxBlockLen = 512;

HZCCL_HOT int32_t checked_outlier_sum(int32_t a, int32_t b) {
  const int64_t s = static_cast<int64_t>(a) + b;
  if (s > std::numeric_limits<int32_t>::max() || s < std::numeric_limits<int32_t>::min()) {
    detail::raise_overflow("chunk outlier sum overflows int32");
  }
  return static_cast<int32_t>(s);
}

/// Homomorphically reduce one chunk pair into [out, out + out_capacity);
/// returns bytes written.  Operand payloads are untrusted: the copy fast
/// paths (pipelines 2/3) move operand bytes verbatim, so every write —
/// copied or re-encoded — is checked against the destination's worst-case
/// capacity before it happens (CapacityError on violation).
HZCCL_HOT size_t hz_add_chunk(std::span<const uint8_t> ca, std::span<const uint8_t> cb,
                    size_t chunk_elems, uint32_t block_len, uint8_t* out,
                    size_t out_capacity, HzPipelineStats& stats) {
  uint8_t* const out_begin = out;
  const uint8_t* const out_end = out + out_capacity;
  const uint8_t* pa = ca.data();
  const uint8_t* const ea = pa + ca.size();
  const uint8_t* pb = cb.data();
  const uint8_t* const eb = pb + cb.size();

  int32_t ra[kMaxBlockLen];
  int32_t rb[kMaxBlockLen];
  uint32_t mags[kMaxBlockLen];
  uint32_t signs[kMaxBlockLen];

  size_t remaining = chunk_elems;
  while (remaining > 0) {
    const size_t n = std::min<size_t>(block_len, remaining);
    const size_t size_a = peek_block_size(pa, ea, n);
    const size_t size_b = peek_block_size(pb, eb, n);
    const int x = *pa;
    const int y = *pb;

    if (x == 0 && y == 0) {
      // Pipeline 1: both constant — the sum is constant too; one byte out.
      if (out >= out_end) detail::raise_capacity("hz_add: chunk output capacity exceeded");
      *out++ = 0;
      ++stats.p1;
    } else if (x == 0) {
      // Pipeline 2: a is constant (all residuals zero), so a + b has exactly
      // b's residual stream; copy b's block verbatim.
      if (size_b > static_cast<size_t>(out_end - out)) {
        detail::raise_capacity("hz_add: chunk output capacity exceeded");
      }
      std::memcpy(out, pb, size_b);
      out += size_b;
      ++stats.p2;
      stats.copied_bytes += size_b;
    } else if (y == 0) {
      // Pipeline 3: mirror of 2.
      if (size_a > static_cast<size_t>(out_end - out)) {
        detail::raise_capacity("hz_add: chunk output capacity exceeded");
      }
      std::memcpy(out, pa, size_a);
      out += size_a;
      ++stats.p3;
      stats.copied_bytes += size_a;
    } else {
      // Pipeline 4: partial decode (IFE), integer add, re-encode (FE).  The
      // merge runs through the dispatched kernel; its guard (OR of all |s|)
      // range-checks the whole block with one compare.
      decode_block(pa, ea, n, ra);
      decode_block(pb, eb, n, rb);
      const uint64_t guard = kernels::active().hz_combine_residuals(ra, rb, n, +1, mags, signs);
      if (guard > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
        detail::raise_overflow("residual sum overflows the 31-bit magnitude domain");
      }
      // Compute-side SDC injection point: an armed injector sign-flips one
      // combined lane *after* the guard and *before* encoding, so the
      // poisoned block encodes cleanly and only a digest verify can see it.
      if (integrity::SdcInjector* inj = integrity::sdc_injector(); inj) {
        inj->maybe_poison_combine(mags, signs, n);
      }
      out = encode_block_prepared(mags, signs, n, code_length_for(static_cast<uint32_t>(guard)),
                                  out, out_end);
      ++stats.p4;
      stats.p4_elements += n;
    }

    pa += size_a;
    pb += size_b;
    remaining -= n;
  }
  if (pa != ea || pb != eb) {
    detail::raise_format("hz_add: chunk payload longer than its block grid");
  }
  return static_cast<size_t>(out - out_begin);
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

  int32_t ra[kMaxBlockLen];
  int32_t rb[kMaxBlockLen];
  float fa[kMaxBlockLen];
  float fb[kMaxBlockLen];
  float fsum[kMaxBlockLen];
  uint32_t mags[kMaxBlockLen];
  uint32_t signs[kMaxBlockLen];

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
      // must not appear in the result's digest.
      const uint64_t base = static_cast<uint64_t>(chunk_elems - remaining) + 1;
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
        if (digest) digest->accumulate(q_out, base + i);
        const uint32_t neg = static_cast<uint32_t>(s < 0);
        const uint32_t mag = neg ? static_cast<uint32_t>(-s) : static_cast<uint32_t>(s);
        mags[i] = mag;
        signs[i] = neg;
        max_mag |= mag;
      }
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

HZCCL_HOT int32_t checked_outlier_combine(int32_t a, int32_t b, int sign_b) {
  const int64_t s = static_cast<int64_t>(a) + static_cast<int64_t>(sign_b) * b;
  if (s > std::numeric_limits<int32_t>::max() || s < std::numeric_limits<int32_t>::min()) {
    detail::raise_overflow("chunk outlier combination overflows int32");
  }
  return static_cast<int32_t>(s);
}

}  // namespace

namespace detail {

CompressedBuffer hz_combine_raw(const FzView& a, const FzView& b, int sign_b,
                                HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  require_layout_compatible(a, b);
  const size_t d = a.num_elements();
  const uint32_t nchunks = a.num_chunks();
  const uint32_t block_len = a.block_len();
  const Quantizer quant(a.error_bound());

  // Raw operand blocks always produce raw output blocks, so the result
  // carries the flag whenever either operand does.
  FzHeader header = a.header;
  header.flags |= static_cast<uint16_t>(b.header.flags & kFlagHasRawBlocks);
  // Digests survive only when both operands carry them (the chain-tracking
  // combine recomputes the output table rather than folding).
  const bool emit_digests = a.has_digests() && b.has_digests();
  if (!emit_digests) header.flags &= static_cast<uint16_t>(~kFlagHasDigests);

  // Tables before the assembler's chunk regions: taken after them, a table
  // could need an arena block of its own.
  ArenaScope scratch;
  const std::span<HzPipelineStats> chunk_stats = scratch.alloc<HzPipelineStats>(nchunks);
  ChunkedStreamAssembler assembler(header, pool);

  {
    ScopedNumThreads scoped(num_threads);
    OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
    for (uint32_t c = 0; c < nchunks; ++c) {
      errors.run([&, c] {
        const Range r = chunk_range(d, static_cast<int>(nchunks), static_cast<int>(c));
        const int32_t outlier =
            checked_outlier_combine(a.chunk_outliers[c], b.chunk_outliers[c], sign_b);
        size_t size = 0;
        integrity::Digest digest;
        if (r.size() > 0) {
          size = combine_chunk_raw(a.chunk_payload(c), b.chunk_payload(c), r.size(),
                                   block_len, a.chunk_outliers[c], b.chunk_outliers[c],
                                   sign_b, quant, assembler.chunk_buffer(c),
                                   assembler.chunk_capacity(c), chunk_stats[c],
                                   emit_digests ? &digest : nullptr);
        }
        assembler.set_chunk(c, size, outlier);
        if (emit_digests) assembler.set_chunk_digest(c, digest);
      });
    }
    errors.rethrow();
  }

  if (stats) {
    for (const auto& s : chunk_stats) *stats += s;
  }
  return assembler.finish();
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
  if (has_raw_blocks(a.header) || has_raw_blocks(b.header)) {
    return detail::hz_combine_raw(a, b, +1, stats, num_threads, pool);
  }
  require_layout_compatible(a, b);
  const size_t d = a.num_elements();
  const uint32_t nchunks = a.num_chunks();
  const uint32_t block_len = a.block_len();

  // Pipeline 4 can grow a block's code length by one bit, but the
  // assembler's global worst case (code length 31) still bounds every
  // outcome.
  //
  // ABFT digests fold algebraically on this path: with no raw blocks the
  // output chain is the element-wise sum of the operand chains, so
  // digest(a + b) = digest(a) + digest(b) per chunk — O(1), no decode.
  FzHeader header = a.header;
  const bool fold_digests = a.has_digests() && b.has_digests();
  if (!fold_digests) header.flags &= static_cast<uint16_t>(~kFlagHasDigests);
  // Tables before the assembler's chunk regions: taken after them, a table
  // could need an arena block of its own.
  ArenaScope scratch;
  const std::span<HzPipelineStats> chunk_stats = scratch.alloc<HzPipelineStats>(nchunks);
  ChunkedStreamAssembler assembler(header, pool);

  {
    ScopedNumThreads scoped(num_threads);
    OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
    for (uint32_t c = 0; c < nchunks; ++c) {
      errors.run([&, c] {
        const Range r = chunk_range(d, static_cast<int>(nchunks), static_cast<int>(c));
        const int32_t outlier = checked_outlier_sum(a.chunk_outliers[c], b.chunk_outliers[c]);
        size_t size = 0;
        if (r.size() > 0) {
          size = hz_add_chunk(a.chunk_payload(c), b.chunk_payload(c), r.size(), block_len,
                              assembler.chunk_buffer(c), assembler.chunk_capacity(c),
                              chunk_stats[c]);
        }
        assembler.set_chunk(c, size, outlier);
        if (fold_digests) {
          assembler.set_chunk_digest(c, a.chunk_digest(c) + b.chunk_digest(c));
        }
      });
    }
    errors.rethrow();
  }

  if (stats) {
    for (const auto& s : chunk_stats) *stats += s;
  }
  return assembler.finish();
}

CompressedBuffer hz_add(const CompressedBuffer& a, const CompressedBuffer& b,
                        HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  return hz_add(parse_fz(a.bytes), parse_fz(b.bytes), stats, num_threads, pool);
}

}  // namespace hzccl
