#include "hzccl/compressor/fz_light.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

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

static_assert(kernels::kMaxQuantValue == kMaxQuantMagnitude,
              "the compress slot guards fZ-light's quantization domain");

/// The exception of a compress_chunk slot fault: the one the per-block
/// quantize, constant-byte and encode_block_prepared / encode_raw_block
/// capacity checks raise for the same block.
[[noreturn]] HZCCL_COLD void raise_compress_fault(kernels::ChunkStatus st) {
  switch (st) {
    case kernels::ChunkStatus::kQuantRange:
      detail::raise_quant_range("value/error-bound ratio exceeds the 30-bit quantization domain");
    case kernels::ChunkStatus::kConstantCapacity:
      detail::raise_capacity("fz_compress: chunk capacity exceeded");
    case kernels::ChunkStatus::kEncodeCapacity:
      detail::raise_capacity("encode_block: encoded block exceeds output capacity");
    case kernels::ChunkStatus::kRawCapacity:
      detail::raise_capacity("encode_raw_block: raw block exceeds output capacity");
    default:
      detail::raise_error("fz_compress: unexpected slot status");
  }
}

/// Compress chunk `range` of `data` into [out, out + out_capacity), the
/// assembler's worst-case chunk region: the anchor, then one compress_chunk
/// slot call, which classifies, quantizes, predicts and encodes every block
/// (paper §III-B2/B3) and folds the ABFT digest (with `digest`) in
/// registers.  Every write is checked against the capacity; a slot fault
/// becomes the exception the per-block steps raise, after the raw blocks
/// met before it are counted.
HZCCL_HOT void compress_chunk(std::span<const float> data, Range range, uint32_t block_len,
                              const Quantizer& quant, bool digest, uint8_t* out,
                              size_t out_capacity, ChunkResult& chunk) {
  if (range.size() == 0) return;
  // The chunk outlier is the first quantized value; the first residual is
  // then zero by construction, which keeps every block the same shape.  A
  // non-finite first value anchors the chain at zero instead — its block is
  // about to take the raw fallback, so the anchor only has to be a value
  // every later (finite) block can predict from deterministically.
  const float f0 = data[range.begin];
  chunk.outlier = std::isfinite(f0) ? quant.quantize(f0) : 0;
  const kernels::CompressChunkResult res = kernels::active().compress_chunk(
      data.data() + range.begin, range.size(), block_len, quant.inv_twice_eb, chunk.outlier,
      digest, out, out_capacity);
  if (res.nonfinite_blocks != 0) count_raw_block(RawBlockReason::kNonFinite, res.nonfinite_blocks);
  if (res.denormal_blocks != 0) {
    count_raw_block(RawBlockReason::kDenormalHeavy, res.denormal_blocks);
  }
  if (res.status != kernels::ChunkStatus::kOk) raise_compress_fault(res.status);
  chunk.size = res.bytes;
  chunk.raw = res.emitted_raw;
  chunk.digest = integrity::Digest{res.sum, res.wsum};
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
        compress_chunk(data, r, params.block_len, quant, params.emit_digests, out.data(),
                       out.size(), res);
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
