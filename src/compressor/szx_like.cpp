#include "hzccl/compressor/szx_like.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <omp.h>

#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

constexpr uint32_t kMaxBlockLen = kMaxWireBlockLen;
constexpr uint8_t kSzxConstant = 0;

/// Kept-bytes-per-float for a non-constant block whose max |value| is A:
/// truncating to k big-end bytes keeps (8k - 9) mantissa bits, so the
/// truncation error is below A * 2^(10 - 8k); pick the smallest k that
/// meets the bound (k = 4 is lossless).
uint8_t kept_bytes_for(double max_abs, double eb) {
  for (int k = 2; k <= 3; ++k) {
    if (max_abs * std::ldexp(1.0, 10 - 8 * k) <= eb) return static_cast<uint8_t>(k);
  }
  return 4;
}

size_t block_payload_size(uint8_t meta, size_t n) {
  if (meta == kSzxConstant) return sizeof(float);
  return n * meta;
}

/// Phase-1 body: classify one block (raw fallback / constant / kept-byte
/// count) and report its midrange.  Standalone and HZCCL_HOT — this min/max
/// scan dominates the szx compression profile — so tools/analyze proves the
/// whole classify loop allocation- and throw-free.
HZCCL_HOT uint8_t scan_szx_block(const float* block_data, size_t n, double eb,
                                 float* midrange) {
  // Raw fallback: NaNs poison the min/max scan below (every comparison is
  // false) and truncation can turn a NaN into an infinity; keeping all
  // four bytes is SZx's natural lossless mode, so such blocks route there.
  if (const auto reason = classify_raw_block(block_data, n)) {
    count_raw_block(*reason);
    return 4;
  }
  // The min/max/|max| pass runs through the dispatched SIMD table; every
  // level is byte-identical on the NaN-free input this branch guarantees.
  float scan[3];
  kernels::active().szx_scan(block_data, n, scan);
  const float mn = scan[0], mx = scan[1], max_abs = scan[2];
  if (static_cast<double>(mx) - mn <= 2.0 * eb) {
    *midrange = static_cast<float>(0.5 * (static_cast<double>(mn) + mx));
    return kSzxConstant;
  }
  return kept_bytes_for(max_abs, eb);
}

/// Phase-2 body: emit one block's midrange or truncated floats at its
/// scanned offset.  Standalone HZCCL_HOT twin of scan_szx_block.
HZCCL_HOT void emit_szx_block(const float* block_data, size_t n, uint8_t meta, float midrange,
                              uint8_t* out) {
  if (meta == kSzxConstant) {
    ByteWriter({out, sizeof(float)}, "szx block").write(midrange, "block midrange");
    return;
  }
  const int k = meta;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t bits = float_bits(block_data[i]);
    // Keep the k most significant bytes (sign + exponent + top mantissa).
    for (int byte = 0; byte < k; ++byte) {
      out[i * k + byte] = static_cast<uint8_t>(bits >> (8 * (3 - byte)));
    }
  }
}

/// Decode one block into out[0, n).  Standalone HZCCL_HOT decompression body.
HZCCL_HOT void decode_szx_block(std::span<const uint8_t> block_bytes, uint8_t meta, size_t n,
                                float* out) {
  ByteReader reader(block_bytes, "szx block");
  if (meta == kSzxConstant) {
    const float value = reader.read<float>("block midrange");
    std::fill_n(out, n, value);
    return;
  }
  const int k = meta;
  const auto body = reader.read_bytes(n * static_cast<size_t>(k), "truncated floats");
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits = 0;
    for (int byte = 0; byte < k; ++byte) {
      bits |= static_cast<uint32_t>(body[i * k + byte]) << (8 * (3 - byte));
    }
    out[i] = float_from_bits(bits);
  }
}

}  // namespace

SzxView parse_szx(std::span<const uint8_t> bytes) {
  ByteReader reader(bytes, "szx stream");
  SzxView v;
  v.header = reader.read<FzHeader>("header");
  if (v.header.magic != kSzxMagic) throw FormatError("bad magic: not an SZx-like stream");
  if (v.header.version != kFormatVersion) throw FormatError("unsupported szx version");
  if (v.header.flags & kFlagHasDigests) throw FormatError("szx streams carry no digest table");
  if (v.header.block_len == 0 || v.header.block_len > kMaxBlockLen) {
    throw FormatError("szx block length out of range");
  }
  const size_t nblocks = v.header.num_chunks;
  const size_t expect_blocks =
      v.header.num_elements == 0
          ? 0
          : (v.header.num_elements + v.header.block_len - 1) / v.header.block_len;
  if (nblocks != expect_blocks) throw FormatError("szx block count inconsistent");
  v.block_meta = reader.read_bytes(nblocks, "block metadata");
  v.payload = reader.rest();
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t m = v.block_meta[b];
    if (m != kSzxConstant && (m < 2 || m > 4)) {
      throw FormatError("szx metadata carries invalid kept-byte count");
    }
  }
  return v;
}

CompressedBuffer szx_compress(std::span<const float> data, const SzxParams& params,
                              BufferPool* pool) {
  if (!(params.abs_error_bound > 0.0)) throw Error("szx_compress: error bound must be positive");
  if (params.block_len == 0 || params.block_len > kMaxBlockLen) {
    throw Error("szx_compress: block_len must be in 1..512");
  }
  const size_t d = data.size();
  const uint32_t block_len = params.block_len;
  const size_t nblocks = d == 0 ? 0 : (d + block_len - 1) / block_len;
  const double eb = params.abs_error_bound;

  std::vector<uint8_t> meta(nblocks, 0);
  std::vector<float> midranges(nblocks, 0.0f);
  std::vector<size_t> sizes(nblocks + 1, 0);

  ScopedNumThreads scoped(params.num_threads);

  // Phase 1: classify every block (SZx's single cheap pass).
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * block_len;
    const size_t n = std::min<size_t>(block_len, d - begin);
    meta[b] = scan_szx_block(data.data() + begin, n, eb, &midranges[b]);
    sizes[b + 1] = block_payload_size(meta[b], n);
  }
  for (size_t b = 0; b < nblocks; ++b) sizes[b + 1] += sizes[b];

  CompressedBuffer result;
  if (pool) result.bytes = pool->acquire(sizeof(FzHeader) + nblocks + sizes[nblocks]);
  result.bytes.resize(sizeof(FzHeader) + nblocks + sizes[nblocks]);
  ByteWriter({result.bytes.data() + sizeof(FzHeader), nblocks}, "szx metadata")
      .write_array(meta.data(), nblocks, "block metadata");
  uint8_t* const payload = result.bytes.data() + sizeof(FzHeader) + nblocks;

  // Phase 2: emit midranges / truncated floats.
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * block_len;
    const size_t n = std::min<size_t>(block_len, d - begin);
    emit_szx_block(data.data() + begin, n, meta[b], midranges[b], payload + sizes[b]);
  }

  FzHeader header;
  header.magic = kSzxMagic;
  header.version = kFormatVersion;
  header.num_elements = d;
  header.block_len = block_len;
  header.num_chunks = static_cast<uint32_t>(nblocks);
  header.error_bound = eb;
  ByteWriter({result.bytes.data(), sizeof header}, "szx stream").write(header, "header");
  return result;
}

void szx_decompress(const CompressedBuffer& compressed, std::span<float> out, int num_threads) {
  const SzxView v = parse_szx(compressed.bytes);
  if (out.size() != v.num_elements()) throw Error("szx_decompress: output size mismatch");
  const size_t d = v.num_elements();
  const uint32_t block_len = v.block_len();
  const size_t nblocks = v.num_blocks();

  std::vector<size_t> offsets(nblocks + 1, 0);
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * block_len;
    const size_t n = std::min<size_t>(block_len, d - begin);
    offsets[b + 1] = offsets[b] + block_payload_size(v.block_meta[b], n);
  }
  if (offsets[nblocks] != v.payload.size()) {
    throw FormatError("szx payload size disagrees with metadata");
  }

  ScopedNumThreads scoped(num_threads);
#pragma omp parallel for schedule(static)
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * block_len;
    const size_t n = std::min<size_t>(block_len, d - begin);
    decode_szx_block(v.payload.subspan(offsets[b], offsets[b + 1] - offsets[b]),
                     v.block_meta[b], n, out.data() + begin);
  }
}

std::vector<float> szx_decompress(const CompressedBuffer& compressed, int num_threads) {
  const SzxView v = parse_szx(compressed.bytes);
  std::vector<float> out(v.num_elements());
  szx_decompress(compressed, out, num_threads);
  return out;
}

}  // namespace hzccl
