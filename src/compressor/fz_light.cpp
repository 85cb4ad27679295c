#include "hzccl/compressor/fz_light.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/quantize.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

void validate_params(const FzParams& p) {
  if (!(p.abs_error_bound > 0.0)) throw Error("fz_compress: error bound must be positive");
  if (p.block_len == 0 || p.block_len > kMaxWireBlockLen) {
    throw Error("fz_compress: block_len must be in 1..512");
  }
}

/// Compress one chunk into [out, out + out_capacity); returns bytes written.
/// The capacity is the assembler's worst-case chunk region; every write is
/// checked against it (CapacityError on violation).
HZCCL_HOT size_t compress_chunk(std::span<const float> data, Range range, uint32_t block_len,
                      const Quantizer& quant, int32_t* outlier, uint8_t* out,
                      size_t out_capacity, bool* emitted_raw, integrity::Digest* digest) {
  uint8_t* const out_begin = out;
  const uint8_t* const out_end = out + out_capacity;
  if (range.size() == 0) {
    *outlier = 0;
    return 0;
  }
  // The chunk outlier is the first quantized value; the first residual is
  // then zero by construction, which keeps every block the same shape.  A
  // non-finite first value anchors the chain at zero instead — its block is
  // about to take the raw fallback, so the anchor only has to be a value
  // every later (finite) block can predict from deterministically.
  const float f0 = data[range.begin];
  const int32_t q0 = std::isfinite(f0) ? quant.quantize(f0) : 0;
  *outlier = q0;

  uint32_t mags[kMaxWireBlockLen];
  uint32_t signs[kMaxWireBlockLen];
  int64_t qbuf[kMaxWireBlockLen];
  int32_t q_prev = q0;
  size_t pos = range.begin;
  const kernels::KernelTable& k = kernels::active();
  while (pos < range.end) {
    const size_t n = std::min<size_t>(block_len, range.end - pos);
    // Fused classify + quantize + predict (paper §III-B2): one dispatched
    // pass over the block decides the raw verdict, quantizes and emits the
    // magnitude/sign split, OR-accumulating both guards.
    const kernels::QuantizePredictResult s = k.fz_quantize_predict(
        data.data() + pos, n, quant.inv_twice_eb, q_prev, /*restart=*/false, qbuf, mags, signs);
    // Raw fallback: blocks the residual domain cannot carry faithfully
    // (NaN/Inf would poison llrint; denormal-heavy blocks would collapse to
    // zeros) store their floats verbatim and stay outside the prediction
    // chain — q_prev is deliberately not advanced.  The verdict outranks
    // the range guard, so a NaN block never raises.
    if (s.raw != kernels::RawVerdict::kNone) {
      count_raw_block(s.raw);
      out = encode_raw_block(data.data() + pos, n, out, out_end);
      *emitted_raw = true;
      pos += n;
      continue;
    }
    if (s.q_guard > static_cast<uint64_t>(kMaxQuantMagnitude)) {
      detail::raise_quant_range(
          "value/error-bound ratio exceeds the 30-bit quantization domain");
    }
    q_prev = static_cast<int32_t>(qbuf[n - 1]);
    // ABFT digest: the decoder's chain value at element i is exactly
    // qbuf[i], so the digest folds straight off the quantization buffer,
    // once per block.  Raw blocks (above) sit outside the chain and
    // contribute nothing.
    if (digest) digest->accumulate_block(qbuf, n, static_cast<uint64_t>(pos - range.begin) + 1);
    if (s.max_mag == 0) {
      // Constant block: one code-length byte, no sign/magnitude work at all
      // (the quiet-data fast path that dominates scientific fields).
      if (out >= out_end) detail::raise_capacity("fz_compress: chunk capacity exceeded");
      *out++ = 0;
    } else {
      out = encode_block_prepared(mags, signs, n, code_length_for(s.max_mag), out, out_end);
    }
    pos += n;
  }
  return static_cast<size_t>(out - out_begin);
}

/// The exception of a chunk slot's fault in a residual-chain walk
/// (decompress or verify): decode_block's for a residual block,
/// `raw_truncated` for a raw block cut short, `trailing` for bytes after
/// the last block.
[[noreturn]] HZCCL_COLD void raise_chain_fault(kernels::ChunkStatus st, const char* raw_truncated,
                                               const char* trailing) {
  switch (st) {
    case kernels::ChunkStatus::kEmptyBlock:
      detail::raise_parse("decode_block: empty input");
    case kernels::ChunkStatus::kBadCodeLength:
      detail::raise_parse("decode_block: bad code length");
    case kernels::ChunkStatus::kTruncatedBlock:
      detail::raise_parse("decode_block: truncated block payload");
    case kernels::ChunkStatus::kTruncatedRaw:
      detail::raise_parse(raw_truncated);
    case kernels::ChunkStatus::kTrailingBytes:
      detail::raise_format(trailing);
    default:
      detail::raise_error("fz chunk walk: unexpected slot status");
  }
}

/// Decode chunk c, `count` values, into out[0, count): one decompress_chunk
/// slot call, which decodes, prefix-sums and dequantizes every residual
/// block in registers, fills constant blocks (the dominant case on quiet
/// scientific data and the reason fZ-light's decompression can approach
/// the STREAM peak, paper Table IV) and copies raw blocks, which sit
/// outside the chain.  The int64 chain cannot wrap on homomorphically
/// reduced streams of many operands, and the chunk's first residual is
/// zero by construction (q0 - q0, and sums of streams keep it so).
/// Standalone and HZCCL_HOT so tools/analyze proves it allocation- and
/// throw-free; every failure path is a cold raise.
HZCCL_HOT void decompress_chunk(const FzView& view, const Quantizer& quant, uint32_t block_len,
                                size_t count, uint32_t c, float* out) {
  const auto chunk = view.chunk_payload(c);
  const kernels::ChunkStatus st =
      kernels::active().decompress_chunk(chunk.data(), chunk.size(), count, block_len,
                                         view.chunk_outliers[c], quant.twice_eb, out);
  if (st != kernels::ChunkStatus::kOk) {
    raise_chain_fault(st, "decode_raw_block: truncated raw payload",
                      "fz_decompress: trailing bytes in chunk payload");
  }
}

/// Recompute one chunk's digest from its encoded residual chain: one
/// fold_chunk slot call, integer domain only (constant blocks fold in
/// O(1), residual blocks in registers with no per-value prefix sum, raw
/// blocks contribute nothing).  A standalone HZCCL_HOT root so
/// tools/analyze proves the verify pass allocation- and throw-free.
HZCCL_HOT integrity::Digest verify_chunk_digest(const FzView& view, uint32_t block_len, Range r,
                                                uint32_t c) {
  const auto chunk = view.chunk_payload(c);
  integrity::Digest digest;
  const kernels::ChunkStatus st =
      kernels::active().fold_chunk(chunk.data(), chunk.size(), r.size(), block_len,
                                   view.chunk_outliers[c], &digest.sum, &digest.wsum);
  if (st != kernels::ChunkStatus::kOk) {
    raise_chain_fault(st, "peek_block_size: truncated block",
                      "fz_verify_digests: trailing bytes in chunk payload");
  }
  return digest;
}

}  // namespace

DigestCheck fz_verify_digests(const FzView& view, int num_threads) {
  DigestCheck check;
  if (!view.has_digests()) return check;
  check.checked = true;
  const uint32_t nchunks = view.num_chunks();
  const uint32_t block_len = view.block_len();

  std::atomic<uint32_t> first_bad{nchunks};
  ScopedNumThreads scoped(num_threads);
  OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
  for (uint32_t c = 0; c < nchunks; ++c) {
    errors.run([&, c] {
      const Range r =
          chunk_range(view.num_elements(), static_cast<int>(nchunks), static_cast<int>(c));
      if (r.size() == 0) return;
      const integrity::Digest computed = verify_chunk_digest(view, block_len, r, c);
      if (computed != view.chunk_digest(c)) {
        uint32_t seen = first_bad.load(std::memory_order_relaxed);
        while (c < seen && !first_bad.compare_exchange_weak(seen, c)) {
        }
      }
    });
  }
  errors.rethrow();

  const uint32_t bad = first_bad.load(std::memory_order_relaxed);
  if (bad != nchunks) {
    check.ok = false;
    check.first_bad_chunk = bad;
  }
  return check;
}

DigestCheck fz_verify_digests(const CompressedBuffer& compressed, int num_threads) {
  return fz_verify_digests(parse_fz(compressed.bytes), num_threads);
}

uint32_t FzParams::auto_chunks(size_t num_elements, uint32_t block_len) {
  if (num_elements == 0) return 1;
  // Aim for chunks of ~512 blocks; clamp to [1, 256] so tiny inputs stay in
  // one chunk and huge inputs still fit a bounded offset table.
  const size_t target_chunk_elems = static_cast<size_t>(block_len) * 512;
  const size_t chunks = (num_elements + target_chunk_elems - 1) / target_chunk_elems;
  return static_cast<uint32_t>(std::clamp<size_t>(chunks, 1, 256));
}

CompressedBuffer fz_compress(std::span<const float> data, const FzParams& params,
                             BufferPool* pool) {
  validate_params(params);
  const size_t d = data.size();
  const uint32_t nchunks = params.resolved_chunks(d);
  const Quantizer quant(params.abs_error_bound);

  FzHeader header;
  header.num_elements = d;
  header.block_len = params.block_len;
  header.num_chunks = nchunks;
  header.error_bound = params.abs_error_bound;
  if (params.emit_digests) header.flags |= kFlagHasDigests;
  return assemble_chunks(
      header, params.num_threads, pool, [&](uint32_t, Range r, std::span<uint8_t> out) {
        ChunkResult res;
        integrity::Digest* const digest = params.emit_digests ? &res.digest : nullptr;
        res.size = compress_chunk(data, r, params.block_len, quant, &res.outlier, out.data(),
                                  out.size(), &res.raw, digest);
        return res;
      });
}

void fz_decompress(const FzView& view, std::span<float> out, int num_threads) {
  if (out.size() != view.num_elements()) {
    throw Error("fz_decompress: output size mismatch");
  }
  const Quantizer quant(view.error_bound());
  const uint32_t nchunks = view.num_chunks();
  const uint32_t block_len = view.block_len();

  ScopedNumThreads scoped(num_threads);
  OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
  for (uint32_t c = 0; c < nchunks; ++c) {
    errors.run([&, c] {
      const Range r =
          chunk_range(view.num_elements(), static_cast<int>(nchunks), static_cast<int>(c));
      if (r.size() == 0) return;
      decompress_chunk(view, quant, block_len, r.size(), c, out.data() + r.begin);
    });
  }
  errors.rethrow();
}

void fz_decompress(const CompressedBuffer& compressed, std::span<float> out, int num_threads) {
  fz_decompress(parse_fz(compressed.bytes), out, num_threads);
}

std::vector<float> fz_decompress(const CompressedBuffer& compressed, int num_threads) {
  const FzView view = parse_fz(compressed.bytes);
  std::vector<float> out(view.num_elements());
  fz_decompress(view, out, num_threads);
  return out;
}

void fz_decompress_range(const FzView& view, size_t begin, size_t end, std::span<float> out,
                         int num_threads) {
  if (begin > end || end > view.num_elements()) {
    throw Error("fz_decompress_range: bad element range");
  }
  if (out.size() != end - begin) {
    throw Error("fz_decompress_range: output size mismatch");
  }
  if (begin == end) return;
  const Quantizer quant(view.error_bound());
  const uint32_t nchunks = view.num_chunks();
  const uint32_t block_len = view.block_len();

  ScopedNumThreads scoped(num_threads);
  OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
  for (uint32_t c = 0; c < nchunks; ++c) {
    errors.run([&, c] {
      const Range r =
          chunk_range(view.num_elements(), static_cast<int>(nchunks), static_cast<int>(c));
      if (r.size() == 0 || r.end <= begin || r.begin >= end) return;
      if (r.begin >= begin && r.end <= end) {
        decompress_chunk(view, quant, block_len, r.size(), c, out.data() + (r.begin - begin));
        return;
      }
      // A chunk the range cuts (at most the first and the last) decodes
      // whole into scratch; the overlap is copied out.
      ArenaScope scratch;
      const std::span<float> chunk = scratch.alloc_for_overwrite<float>(r.size());
      decompress_chunk(view, quant, block_len, r.size(), c, chunk.data());
      const size_t lo = std::max(r.begin, begin);
      const size_t hi = std::min(r.end, end);
      std::copy(chunk.data() + (lo - r.begin), chunk.data() + (hi - r.begin),
                out.data() + (lo - begin));
    });
  }
  errors.rethrow();
}

void fz_decompress_range(const CompressedBuffer& compressed, size_t begin, size_t end,
                         std::span<float> out, int num_threads) {
  fz_decompress_range(parse_fz(compressed.bytes), begin, end, out, num_threads);
}

}  // namespace hzccl
