#include "hzccl/compressor/omp_szp.hpp"

#include <algorithm>
#include <cstring>

#include <omp.h>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/quantize.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

constexpr uint32_t kMaxBlockLen = kMaxWireBlockLen;

/// Classify and quantize one block through the fused slot; returns its raw
/// verdict and, for a quantized block, its code length, outlier and whether
/// every quantized value is zero.  Residual prediction restarts at each
/// block (single-layer partitioning: there is no chunk to carry state
/// across).
struct BlockScan {
  kernels::RawVerdict raw = kernels::RawVerdict::kNone;
  int32_t outlier = 0;
  int code_len = 0;
  bool all_zero = false;
};

HZCCL_HOT BlockScan scan_block(const float* data, size_t n, const Quantizer& quant, int64_t* qbuf,
                     uint32_t* mags, uint32_t* signs) {
  const kernels::QuantizePredictResult r = kernels::active().fz_quantize_predict(
      data, n, quant.inv_twice_eb, 0, /*restart=*/true, qbuf, mags, signs);
  BlockScan s;
  s.raw = r.raw;
  if (r.raw != kernels::RawVerdict::kNone) return s;
  if (r.q_guard > static_cast<uint64_t>(kMaxQuantMagnitude)) {
    detail::raise_quant_range(
        "value/error-bound ratio exceeds the 30-bit quantization domain");
  }
  s.outlier = static_cast<int32_t>(qbuf[0]);
  // Prediction restarts at the outlier, so the first residual is zero by
  // construction and the slot's max over the whole block equals the scan
  // over elements 1..n-1.
  s.code_len = code_length_for(r.max_mag);
  s.all_zero = (r.q_guard == 0);
  return s;
}

/// Phase-2 body: re-quantize block b and serialize it into exactly its
/// scanned [block_begin, block_end) region.  Standalone and HZCCL_HOT so
/// tools/analyze proves the per-block write loop allocation- and throw-free
/// (ByteWriter failures route through cold raises).
HZCCL_HOT void write_block(const float* block_data, size_t n, uint8_t meta,
                           const Quantizer& quant, const kernels::KernelTable& k,
                           uint8_t* block_begin, uint8_t* block_end, int64_t* qbuf,
                           uint32_t* mags, uint32_t* signs) {
  ByteWriter writer({block_begin, static_cast<size_t>(block_end - block_begin)}, "szp block");
  if (meta == kSzpRawBlock) {
    writer.write_array(block_data, n, "raw block floats");
    return;
  }
  const kernels::QuantizePredictResult r = k.fz_quantize_predict(
      block_data, n, quant.inv_twice_eb, 0, /*restart=*/true, qbuf, mags, signs);
  if (r.raw != kernels::RawVerdict::kNone) {
    detail::raise_error("szp_compress: block classified raw after its scan");
  }
  if (r.q_guard > static_cast<uint64_t>(kMaxQuantMagnitude)) {
    detail::raise_quant_range(
        "value/error-bound ratio exceeds the 30-bit quantization domain");
  }
  const int32_t q0 = static_cast<int32_t>(qbuf[0]);
  writer.write(q0, "block outlier");
  if (meta == 0) return;  // constant block
  encode_block_prepared(mags, signs, n, code_length_for(r.max_mag),
                        block_begin + sizeof(int32_t), block_end);
}

/// Decode one block into out[begin, begin + n).  Standalone HZCCL_HOT twin
/// of write_block for the decompression loop.
HZCCL_HOT void decode_szp_block(const SzpView& v, size_t b, size_t begin, size_t n,
                                std::span<const size_t> offsets, const Quantizer& quant,
                                std::span<float> out, int32_t* rbuf) {
  const uint8_t m = v.block_meta[b];
  if (m == kSzpZeroBlock) {
    std::memset(out.data() + begin, 0, n * sizeof(float));
    return;
  }
  if (m == kSzpRawBlock) {
    ByteReader reader(v.payload.subspan(offsets[b], offsets[b + 1] - offsets[b]),
                      "szp raw block");
    const auto body = reader.read_bytes(n * sizeof(float), "raw block floats");
    std::memcpy(out.data() + begin, body.data(), n * sizeof(float));
    return;
  }
  ByteReader reader(v.payload.subspan(offsets[b], offsets[b + 1] - offsets[b]), "szp block");
  const int32_t outlier = reader.read<int32_t>("block outlier");
  if (m == 0) {
    const float value = quant.dequantize(outlier);
    std::fill_n(out.data() + begin, n, value);
    return;
  }
  const auto body = reader.rest();
  if (body.empty() || body[0] != m) {
    detail::raise_format("szp block code length disagrees with metadata");
  }
  decode_block(body.data(), body.data() + body.size(), n, rbuf);
  int64_t q = outlier;
  for (size_t i = 0; i < n; ++i) {
    q += rbuf[i];
    out[begin + i] = quant.dequantize(static_cast<int64_t>(q));
  }
}

/// Bytes a kept (non-omitted) block occupies in the payload.  The code
/// length is stored both in the metadata array (for the offset scan) and at
/// the head of the encoded body (so the shared block codec applies as-is) —
/// mirroring cuSZp, which also keeps block metadata in a separate array.
size_t block_payload_size(uint8_t meta, size_t n) {
  if (meta == kSzpZeroBlock) return 0;
  if (meta == kSzpRawBlock) return n * sizeof(float);
  const int c = meta;
  if (c == 0) return sizeof(int32_t);  // constant block: outlier only
  return sizeof(int32_t) + encoded_block_size(c, n);
}

}  // namespace

SzpView parse_szp(std::span<const uint8_t> bytes) {
  ByteReader reader(bytes, "szp stream");
  SzpView v;
  v.header = reader.read<FzHeader>("header");
  if (v.header.magic != kSzpMagic) throw FormatError("bad magic: not an ompSZp stream");
  if (v.header.version != kFormatVersion) throw FormatError("unsupported szp version");
  if (v.header.flags & kFlagHasDigests) throw FormatError("szp streams carry no digest table");
  if (v.header.block_len == 0 || v.header.block_len > kMaxBlockLen) {
    throw FormatError("szp block length out of range");
  }
  const size_t nblocks = v.header.num_chunks;
  const size_t expect_blocks =
      v.header.num_elements == 0
          ? 0
          : (v.header.num_elements + v.header.block_len - 1) / v.header.block_len;
  if (nblocks != expect_blocks) throw FormatError("szp block count inconsistent");
  v.block_meta = reader.read_bytes(nblocks, "block metadata");
  v.payload = reader.rest();
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t m = v.block_meta[b];
    if (m != kSzpZeroBlock && m != kSzpRawBlock && m > kMaxCodeLength) {
      throw FormatError("szp metadata carries invalid code length");
    }
  }
  return v;
}

CompressedBuffer szp_compress(std::span<const float> data, const SzpParams& params,
                              BufferPool* pool) {
  if (!(params.abs_error_bound > 0.0)) throw Error("szp_compress: error bound must be positive");
  if (params.block_len == 0 || params.block_len > kMaxBlockLen) {
    throw Error("szp_compress: block_len must be in 1..512");
  }
  const size_t d = data.size();
  const uint32_t block_len = params.block_len;
  const size_t nblocks = d == 0 ? 0 : (d + block_len - 1) / block_len;
  const Quantizer quant(params.abs_error_bound);

  std::vector<uint8_t> meta(nblocks, 0);
  std::vector<size_t> sizes(nblocks + 1, 0);

  ScopedNumThreads scoped(params.num_threads);

  // Phase 1: measure every block.  Round-robin assignment reproduces
  // cuSZp's thread-to-block mapping (thread t handles blocks t, t+T, ...),
  // which hops across distant memory on a CPU.
  OmpExceptionCollector scan_errors;
#pragma omp parallel
  {
    const size_t tid = static_cast<size_t>(omp_get_thread_num());
    const size_t nthreads = static_cast<size_t>(omp_get_num_threads());
    int64_t qbuf[kMaxBlockLen];
    uint32_t mags[kMaxBlockLen];
    uint32_t signs[kMaxBlockLen];
    for (size_t b = tid; b < nblocks; b += nthreads) {
      scan_errors.run([&, b] {
        const size_t begin = b * block_len;
        const size_t n = std::min<size_t>(block_len, d - begin);
        uint8_t m;
        const BlockScan s = scan_block(data.data() + begin, n, quant, qbuf, mags, signs);
        if (s.raw != kernels::RawVerdict::kNone) {
          count_raw_block(s.raw);
          m = kSzpRawBlock;
        } else {
          m = s.all_zero ? kSzpZeroBlock : static_cast<uint8_t>(s.code_len);
        }
        meta[b] = m;
        sizes[b + 1] = block_payload_size(m, n);
      });
    }
  }
  scan_errors.rethrow();

  // Global size scan — the stand-in for cuSZp's device-wide synchronization
  // that fZ-light's per-chunk design eliminates.
  for (size_t b = 0; b < nblocks; ++b) sizes[b + 1] += sizes[b];
  const size_t payload_bytes = sizes[nblocks];

  CompressedBuffer result;
  if (pool) result.bytes = pool->acquire(sizeof(FzHeader) + nblocks + payload_bytes);
  result.bytes.resize(sizeof(FzHeader) + nblocks + payload_bytes);
  ByteWriter meta_writer({result.bytes.data() + sizeof(FzHeader), nblocks}, "szp metadata");
  meta_writer.write_array(meta.data(), nblocks, "block metadata");
  uint8_t* const payload = result.bytes.data() + sizeof(FzHeader) + nblocks;

  // Phase 2: re-quantize and write at the scanned offsets.  Each block gets
  // a ByteWriter over exactly its scanned region, so a phase-1/phase-2
  // disagreement surfaces as CapacityError instead of overrunning into the
  // neighbor block.
  OmpExceptionCollector write_errors;
#pragma omp parallel
  {
    const size_t tid = static_cast<size_t>(omp_get_thread_num());
    const size_t nthreads = static_cast<size_t>(omp_get_num_threads());
    int64_t qbuf[kMaxBlockLen];
    uint32_t mags[kMaxBlockLen];
    uint32_t signs[kMaxBlockLen];
    const kernels::KernelTable& k = kernels::active();
    for (size_t b = tid; b < nblocks; b += nthreads) {
      if (meta[b] == kSzpZeroBlock) continue;
      write_errors.run([&, b] {
        const size_t begin = b * block_len;
        const size_t n = std::min<size_t>(block_len, d - begin);
        write_block(data.data() + begin, n, meta[b], quant, k, payload + sizes[b],
                    payload + sizes[b + 1], qbuf, mags, signs);
      });
    }
  }
  write_errors.rethrow();

  FzHeader header;
  header.magic = kSzpMagic;
  header.version = kFormatVersion;
  header.num_elements = d;
  header.block_len = block_len;
  header.num_chunks = static_cast<uint32_t>(nblocks);
  header.error_bound = params.abs_error_bound;
  ByteWriter({result.bytes.data(), sizeof header}, "szp stream").write(header, "header");
  return result;
}

void szp_decompress(const CompressedBuffer& compressed, std::span<float> out, int num_threads) {
  const SzpView v = parse_szp(compressed.bytes);
  if (out.size() != v.num_elements()) throw Error("szp_decompress: output size mismatch");
  const size_t d = v.num_elements();
  const uint32_t block_len = v.block_len();
  const size_t nblocks = v.num_blocks();
  const Quantizer quant(v.error_bound());

  // Offset reconstruction scan (the decompression-side analogue of the
  // global synchronization).
  std::vector<size_t> offsets(nblocks + 1, 0);
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * block_len;
    const size_t n = std::min<size_t>(block_len, d - begin);
    offsets[b + 1] = offsets[b] + block_payload_size(v.block_meta[b], n);
  }
  if (offsets[nblocks] != v.payload.size()) {
    throw FormatError("szp payload size disagrees with metadata");
  }

  ScopedNumThreads scoped(num_threads);
  OmpExceptionCollector errors;
#pragma omp parallel
  {
    const size_t tid = static_cast<size_t>(omp_get_thread_num());
    const size_t nthreads = static_cast<size_t>(omp_get_num_threads());
    int32_t rbuf[kMaxBlockLen];
    for (size_t b = tid; b < nblocks; b += nthreads) {
      errors.run([&, b] {
        const size_t begin = b * block_len;
        const size_t n = std::min<size_t>(block_len, d - begin);
        decode_szp_block(v, b, begin, n, offsets, quant, out, rbuf);
      });
    }
  }
  errors.rethrow();
}

std::vector<float> szp_decompress(const CompressedBuffer& compressed, int num_threads) {
  const SzpView v = parse_szp(compressed.bytes);
  std::vector<float> out(v.num_elements());
  szp_decompress(compressed, out, num_threads);
  return out;
}

}  // namespace hzccl
