#include "hzccl/homomorphic/hz_ops.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

/// Per-chunk scale: decode, multiply, re-encode (copy fast paths for the
/// trivial factors are handled by the callers).
HZCCL_HOT size_t scale_chunk(std::span<const uint8_t> ca, size_t chunk_elems, uint32_t block_len,
                             int64_t factor, uint8_t* out, size_t out_capacity) {
  uint8_t* const out_begin = out;
  const uint8_t* const out_end = out + out_capacity;
  const uint8_t* pa = ca.data();
  const uint8_t* const ea = pa + ca.size();

  int32_t rbuf[kMaxWireBlockLen];
  uint32_t mags[kMaxWireBlockLen];
  uint32_t signs[kMaxWireBlockLen];

  size_t remaining = chunk_elems;
  while (remaining > 0) {
    const size_t n = std::min<size_t>(block_len, remaining);
    const size_t size_a = peek_block_size(pa, ea, n);
    if (*pa == kRawBlockMarker) {
      // Raw block: scale the stored floats directly; the block stays outside
      // the quantized chain in the result exactly as in the operand.
      float fbuf[kMaxWireBlockLen];
      decode_raw_block(pa, ea, n, fbuf);
      for (size_t i = 0; i < n; ++i) {
        fbuf[i] = static_cast<float>(static_cast<double>(fbuf[i]) * static_cast<double>(factor));
      }
      out = encode_raw_block(fbuf, n, out, out_end);
    } else if (*pa == 0) {
      // Constant block: k * 0-residuals stay zero.
      if (out >= out_end) detail::raise_capacity("hz_scale: chunk output capacity exceeded");
      *out++ = 0;
    } else {
      decode_block(pa, ea, n, rbuf);
      uint32_t max_mag = 0;
      for (size_t i = 0; i < n; ++i) {
        const int64_t s = static_cast<int64_t>(rbuf[i]) * factor;
        if (s > std::numeric_limits<int32_t>::max() || s < std::numeric_limits<int32_t>::min()) {
          detail::raise_overflow("scaled residual overflows int32");
        }
        const uint32_t neg = static_cast<uint32_t>(s < 0);
        const uint32_t mag = static_cast<uint32_t>(neg ? -s : s);
        mags[i] = mag;
        signs[i] = neg;
        max_mag |= mag;
      }
      out = encode_block_prepared(mags, signs, n, code_length_for(max_mag), out, out_end);
    }
    pa += size_a;
    remaining -= n;
  }
  if (pa != ea) detail::raise_format("hz_scale: chunk payload longer than its block grid");
  return static_cast<size_t>(out - out_begin);
}

}  // namespace

CompressedBuffer hz_scale(const FzView& a, int32_t factor, int num_threads, BufferPool* pool) {
  if (factor == -1) return hz_negate(a, num_threads, pool);
  // digest(k * x) = k * digest(x): scaling is a linear map of the chain.
  return assemble_chunks(
      a.header, num_threads, pool, [&](uint32_t c, Range r, std::span<uint8_t> out) {
        ChunkResult res;
        res.outlier = checked_outlier(static_cast<int64_t>(a.chunk_outliers[c]) * factor);
        if (a.has_digests()) res.digest = static_cast<int64_t>(factor) * a.chunk_digest(c);
        if (r.size() == 0) return res;
        if (factor == 1) {
          // Identity: a verbatim copy of the chunk.
          const auto chunk = a.chunk_payload(c);
          if (chunk.size() > out.size()) {
            throw CapacityError("hz_scale: chunk copy exceeds output capacity");
          }
          std::memcpy(out.data(), chunk.data(), chunk.size());
          res.size = chunk.size();
        } else {
          res.size = scale_chunk(a.chunk_payload(c), r.size(), a.block_len(), factor, out.data(),
                                 out.size());
        }
        return res;
      });
}

CompressedBuffer hz_scale(const CompressedBuffer& a, int32_t factor, int num_threads,
                          BufferPool* pool) {
  return hz_scale(parse_fz(a.bytes), factor, num_threads, pool);
}

CompressedBuffer hz_negate(const FzView& a, int num_threads, BufferPool* pool) {
  // -a = 0 - a: each chunk combines, with sign -1, against a prefix of one
  // constant chain, a zero code-length byte per block of the whole stream
  // (no larger than the output), taken before the assembler's chunk regions.
  ArenaScope arena;
  const auto blocks = [&](size_t elems) { return (elems + a.block_len() - 1) / a.block_len(); };
  const std::span<const uint8_t> constant = arena.alloc<uint8_t>(blocks(a.num_elements()));
  return assemble_chunks(
      a.header, num_threads, pool, [&](uint32_t c, Range r, std::span<uint8_t> out) {
        ChunkResult res;
        res.outlier = checked_outlier(-static_cast<int64_t>(a.chunk_outliers[c]));
        if (a.has_digests()) res.digest = -a.chunk_digest(c);
        if (r.size() == 0) return res;
        HzPipelineStats stats;
        res.size = detail::combine_chunk(constant.first(blocks(r.size())), a.chunk_payload(c),
                                         r.size(), a.block_len(), -1, out.data(), out.size(),
                                         stats);
        return res;
      });
}

CompressedBuffer hz_negate(const CompressedBuffer& a, int num_threads, BufferPool* pool) {
  return hz_negate(parse_fz(a.bytes), num_threads, pool);
}

CompressedBuffer hz_sub(const CompressedBuffer& a, const CompressedBuffer& b,
                        HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  return detail::hz_combine(parse_fz(a.bytes), parse_fz(b.bytes), -1, stats, num_threads, pool);
}

namespace {

/// Byte copy of a stream into (optionally pooled) fresh storage, so every
/// partial sum hz_add_many holds is owned uniformly and can be recycled.
CompressedBuffer copy_stream(const CompressedBuffer& src, BufferPool* pool) {
  CompressedBuffer out;
  if (pool) out.bytes = pool->acquire(src.bytes.size());
  out.bytes.assign(src.bytes.begin(), src.bytes.end());
  return out;
}

}  // namespace

CompressedBuffer hz_add_many(std::span<const CompressedBuffer> operands,
                             HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  if (operands.empty()) throw Error("hz_add_many: need at least one operand");
  if (operands.size() == 1) return copy_stream(operands[0], pool);

  // Balanced pairwise tree: level 0 pairs the inputs, later levels pair the
  // partial sums.  All partials land in pooled storage and are released as
  // soon as the next level consumes them, so each buffer ping-pongs between
  // the pool and at most one live partial — no per-level vector churn.
  std::vector<CompressedBuffer> level;
  level.reserve((operands.size() + 1) / 2);
  for (size_t i = 0; i + 1 < operands.size(); i += 2) {
    level.push_back(hz_add(operands[i], operands[i + 1], stats, num_threads, pool));
  }
  if (operands.size() % 2 == 1) level.push_back(copy_stream(operands.back(), pool));

  while (level.size() > 1) {
    // Compact in place: slot w receives the sum of the pair at (i, i+1),
    // whose storage goes straight back to the pool for the next pair's sum.
    size_t w = 0;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      CompressedBuffer sum = hz_add(level[i], level[i + 1], stats, num_threads, pool);
      if (pool) {
        pool->release(std::move(level[i].bytes));
        pool->release(std::move(level[i + 1].bytes));
      }
      level[w++] = std::move(sum);
    }
    if (level.size() % 2 == 1) {
      CompressedBuffer tail = std::move(level.back());
      level[w++] = std::move(tail);
    }
    level.resize(w);
  }
  return std::move(level.front());
}

}  // namespace hzccl
