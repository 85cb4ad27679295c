// Shared kernel bodies, compiled once per variant translation unit.
//
// The scalar bodies here are the single source of truth for the wire
// layout: the fixed-length block of hzccl/compressor/fixed_len.hpp, whose
// sign and remainder planes are LSB-first little-endian bitstreams in which
// eight X-bit values occupy exactly X bytes.  The SIMD sections are guarded
// on the including TU's ISA macros, so scalar.cpp (built with the project's
// baseline flags) sees only the references, avx2.cpp adds the PDEP/PEXT
// block codec and the SSE4.2 CRC-32C, and avx512.cpp adds the
// VPERMB/VPMULTISHIFTQB block codec, its chunk walks, the VCVTPD2QQ
// paths and the VPCLMULQDQ CRC-32C.  The one chunk walk (walk_blocks) and
// the integer bodies (the residual merge, the digest fold, and the scalar
// steps of the fused block pass) are
// shared across all TUs on purpose: recompiling them under wider -m flags
// lets the auto-vectorizer retarget them per level while the arithmetic —
// and therefore the bytes — stays identical.
// Everything here has internal linkage (the unnamed namespace below), so
// each variant TU keeps its own copy: the linker can never fold a body two
// TUs emit out of line into one copy that both tables then call (an AVX-512
// recompile behind the scalar table, or the scalar one behind the AVX-512
// table).  For the same reason the bodies two variant TUs compile call no
// std:: function template or inline function: at -O0 each TU emits those
// out of line as weak symbols and the linker keeps one ISA's copy for all.
// Hence the local min/max, __builtin_fabsf and the plain-array CRC tables.
// The ctest KernelSymbols.NoDefinitionSharedAcrossIsaObjects checks this
// with nm.
//
// Every function here is allocation-free and bounds-exact: packers never
// write past ceil(n*X/8) output bytes, unpackers never read past it.  The
// table-entry bodies carry HZCCL_HOT, so tools/analyze proves the
// no-alloc/no-throw/bounded-stack contract for them on every --analyze run
// (kernel-table entries additionally must reach no throw at all).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/contracts.hpp"

#if defined(__SSE4_2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace hzccl::kernels::detail {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference: the sign and remainder plane pack/unpack (the
// conformance oracle).
// ---------------------------------------------------------------------------

// Generic group-of-8 packer for X in 1..7: eight X-bit values -> X bytes via
// one 64-bit shift cascade (the paper's ultra_fast_bit_shifting_x).
template <int X>
inline void pack8(const uint32_t* v, uint8_t* out) {
  uint64_t acc = 0;
  acc |= static_cast<uint64_t>(v[0] & ((1u << X) - 1));
  acc |= static_cast<uint64_t>(v[1] & ((1u << X) - 1)) << (X * 1);
  acc |= static_cast<uint64_t>(v[2] & ((1u << X) - 1)) << (X * 2);
  acc |= static_cast<uint64_t>(v[3] & ((1u << X) - 1)) << (X * 3);
  acc |= static_cast<uint64_t>(v[4] & ((1u << X) - 1)) << (X * 4);
  acc |= static_cast<uint64_t>(v[5] & ((1u << X) - 1)) << (X * 5);
  acc |= static_cast<uint64_t>(v[6] & ((1u << X) - 1)) << (X * 6);
  acc |= static_cast<uint64_t>(v[7] & ((1u << X) - 1)) << (X * 7);
  if constexpr (X >= 1) out[0] = static_cast<uint8_t>(acc);
  if constexpr (X >= 2) out[1] = static_cast<uint8_t>(acc >> 8);
  if constexpr (X >= 3) out[2] = static_cast<uint8_t>(acc >> 16);
  if constexpr (X >= 4) out[3] = static_cast<uint8_t>(acc >> 24);
  if constexpr (X >= 5) out[4] = static_cast<uint8_t>(acc >> 32);
  if constexpr (X >= 6) out[5] = static_cast<uint8_t>(acc >> 40);
  if constexpr (X >= 7) out[6] = static_cast<uint8_t>(acc >> 48);
}

template <int X>
inline void unpack8(const uint8_t* src, uint32_t* v) {
  uint64_t acc = 0;
  if constexpr (X >= 1) acc |= static_cast<uint64_t>(src[0]);
  if constexpr (X >= 2) acc |= static_cast<uint64_t>(src[1]) << 8;
  if constexpr (X >= 3) acc |= static_cast<uint64_t>(src[2]) << 16;
  if constexpr (X >= 4) acc |= static_cast<uint64_t>(src[3]) << 24;
  if constexpr (X >= 5) acc |= static_cast<uint64_t>(src[4]) << 32;
  if constexpr (X >= 6) acc |= static_cast<uint64_t>(src[5]) << 40;
  if constexpr (X >= 7) acc |= static_cast<uint64_t>(src[6]) << 48;
  constexpr uint64_t mask = (1u << X) - 1;
  v[0] = static_cast<uint32_t>(acc & mask);
  v[1] = static_cast<uint32_t>((acc >> (X * 1)) & mask);
  v[2] = static_cast<uint32_t>((acc >> (X * 2)) & mask);
  v[3] = static_cast<uint32_t>((acc >> (X * 3)) & mask);
  v[4] = static_cast<uint32_t>((acc >> (X * 4)) & mask);
  v[5] = static_cast<uint32_t>((acc >> (X * 5)) & mask);
  v[6] = static_cast<uint32_t>((acc >> (X * 6)) & mask);
  v[7] = static_cast<uint32_t>((acc >> (X * 7)) & mask);
}

// Tail handling (< 8 values): accumulate into one 64-bit word, flush the
// occupied bytes.  8*X bits <= 56, so a single accumulator always suffices.
template <int X>
inline void pack_tail(const uint32_t* v, size_t n, uint8_t* out) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<uint64_t>(v[i] & ((1u << X) - 1)) << (X * i);
  }
  const size_t bytes = (n * X + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) out[b] = static_cast<uint8_t>(acc >> (8 * b));
}

template <int X>
inline void unpack_tail(const uint8_t* src, size_t n, uint32_t* v) {
  uint64_t acc = 0;
  const size_t bytes = (n * X + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) acc |= static_cast<uint64_t>(src[b]) << (8 * b);
  constexpr uint64_t mask = (1u << X) - 1;
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint32_t>((acc >> (X * i)) & mask);
}

/// Scalar pack at a remainder-plane width X in 1..7 (X = 1 is the sign
/// plane): the scalar block codec's planes and the oracle.
template <int X>
inline HZCCL_HOT void scalar_pack(const uint32_t* v, size_t n, uint8_t* out) {
  static_assert(X >= 1 && X <= 7, "the block codec packs the sign and remainder planes only");
  size_t i = 0;
  for (; i + 8 <= n; i += 8, out += X) pack8<X>(v + i, out);
  if (i < n) pack_tail<X>(v + i, n - i, out);
}

template <int X>
inline HZCCL_HOT void scalar_unpack(const uint8_t* src, size_t n, uint32_t* v) {
  static_assert(X >= 1 && X <= 7, "the block codec packs the sign and remainder planes only");
  size_t i = 0;
  for (; i + 8 <= n; i += 8, src += X) unpack8<X>(src, v + i);
  if (i < n) unpack_tail<X>(src, n - i, v + i);
}

// ---------------------------------------------------------------------------
// Integer merge and the fused block pass (shared across all levels; each
// TU's auto-vectorizer retargets them, the arithmetic is ISA-independent).
// ---------------------------------------------------------------------------

template <int SIGN_B>
inline uint64_t combine_loop(const int32_t* ra, const int32_t* rb, size_t n, uint32_t* mags,
                             uint32_t* signs) {
  uint64_t guard = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t s = SIGN_B >= 0
                          ? static_cast<int64_t>(ra[i]) + static_cast<int64_t>(rb[i])
                          : static_cast<int64_t>(ra[i]) - static_cast<int64_t>(rb[i]);
    const int64_t neg = s >> 63;  // 0 or -1: branch-free |s| and sign bit
    const uint64_t mag = static_cast<uint64_t>((s ^ neg) - neg);
    guard |= mag;
    mags[i] = static_cast<uint32_t>(mag);
    signs[i] = static_cast<uint32_t>(neg & 1);
  }
  return guard;
}

inline HZCCL_HOT uint64_t combine_body(const int32_t* ra, const int32_t* rb, size_t n, int sign_b,
                             uint32_t* mags, uint32_t* signs) {
  return sign_b >= 0 ? combine_loop<+1>(ra, rb, n, mags, signs)
                     : combine_loop<-1>(ra, rb, n, mags, signs);
}

/// 1-D Lorenzo predict over a quantized block: r[i] = (int32)q[i] -
/// (int32)q[i-1] in int64, q[-1] = q_prev, emitted as the magnitude/sign
/// split; returns the OR of the magnitudes.
inline uint32_t predict_body(const int64_t* q, size_t n, int32_t q_prev, uint32_t* mags,
                             uint32_t* signs) {
  if (n == 0) return 0;
  uint32_t max_mag = 0;
  {
    // First element peeled so the main loop reads q[i-1] directly and stays
    // free of a loop-carried dependency.
    const int64_t r = static_cast<int64_t>(static_cast<int32_t>(q[0])) - q_prev;
    const int64_t neg = r >> 63;
    const uint32_t mag = static_cast<uint32_t>((r ^ neg) - neg);
    mags[0] = mag;
    signs[0] = static_cast<uint32_t>(neg & 1);
    max_mag |= mag;
  }
  for (size_t i = 1; i < n; ++i) {
    const int64_t r = static_cast<int64_t>(static_cast<int32_t>(q[i])) -
                      static_cast<int64_t>(static_cast<int32_t>(q[i - 1]));
    const int64_t neg = r >> 63;
    const uint32_t mag = static_cast<uint32_t>((r ^ neg) - neg);
    mags[i] = mag;
    signs[i] = static_cast<uint32_t>(neg & 1);
    max_mag |= mag;
  }
  return max_mag;
}

/// |qi| in uint64: llrint's out-of-range result LLONG_MIN maps to 2^63
/// (what the vector abs yields) without a signed overflow.
inline uint64_t quant_magnitude(long long qi) {
  const uint64_t neg = static_cast<uint64_t>(qi >> 63);
  return (static_cast<uint64_t>(qi) ^ neg) - neg;
}

/// q[i] = llrint(data[i] * inv_twice_eb) in double; returns the OR of all
/// |q|.  The guard is returned, never raised on.
inline uint64_t quantize_body(const float* data, size_t n, double inv_twice_eb, int64_t* q) {
  uint64_t guard = 0;
  for (size_t i = 0; i < n; ++i) {
    const long long qi = std::llrint(static_cast<double>(data[i]) * inv_twice_eb);
    q[i] = qi;
    guard |= quant_magnitude(qi);
  }
  return guard;
}

/// Float bit fields the raw-fallback rule reads.
inline constexpr uint32_t kFloatExpMask = 0x7f800000u;
inline constexpr uint32_t kFloatMantissaMask = 0x007fffffu;

/// Raw-fallback evidence of a block: non-finite lanes seen, subnormal
/// lanes counted.
struct RawCounts {
  uint32_t nonfinite = 0;
  size_t subnormals = 0;
};

/// The raw-fallback classification loop of classify_raw_block over
/// data[0, n), added to `c`: exponent all-ones is non-finite, exponent zero
/// with a nonzero mantissa is subnormal.  Bit tests only, so NaNs cannot
/// poison the decision.
inline void count_raw_lanes(const float* data, size_t n, RawCounts& c) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof bits);
    const uint32_t exp = bits & kFloatExpMask;
    c.nonfinite |= static_cast<uint32_t>(exp == kFloatExpMask);
    c.subnormals += static_cast<size_t>(exp == 0 && (bits & kFloatMantissaMask) != 0);
  }
}

/// classify_raw_block's rule on the counts of an n-value block.
inline RawVerdict raw_verdict(const RawCounts& c, size_t n) {
  if (c.nonfinite != 0) return RawVerdict::kNonFinite;
  if (2 * c.subnormals > n) return RawVerdict::kDenormalHeavy;
  return RawVerdict::kNone;
}

/// The fused block pass as three walks in sequence — classify, quantize,
/// predict: the scalar slot and the oracle every level matches.
inline HZCCL_HOT QuantizePredictResult quantize_predict_body(const float* data, size_t n,
                                                             double inv_twice_eb, int32_t q_prev,
                                                             bool restart, int64_t* q,
                                                             uint32_t* mags, uint32_t* signs) {
  QuantizePredictResult res;
  RawCounts counts;
  count_raw_lanes(data, n, counts);
  res.raw = raw_verdict(counts, n);
  if (res.raw != RawVerdict::kNone || n == 0) return res;
  res.q_guard = quantize_body(data, n, inv_twice_eb, q);
  res.max_mag = predict_body(q, n, restart ? static_cast<int32_t>(q[0]) : q_prev, mags, signs);
  return res;
}

/// std::min and std::max on floats, tie rule included (the first argument
/// wins), but with internal linkage (see the file comment).
inline float min_f(float a, float b) { return b < a ? b : a; }
inline float max_f(float a, float b) { return a < b ? b : a; }

/// SZx classification scan (SzxScanFn contract: n >= 1, NaN-free input).
/// The trailing `+ 0.0f` folds -0 into +0: min/max lane order decides which
/// zero survives a tie, and the midrange a constant block writes to the wire
/// must not depend on that order.
inline HZCCL_HOT void szx_scan_body(const float* data, size_t n, float* out) {
  float mn = data[0];
  float mx = data[0];
  float max_abs = __builtin_fabsf(data[0]);
  for (size_t i = 1; i < n; ++i) {
    const float v = data[i];
    mn = min_f(mn, v);
    mx = max_f(mx, v);
    max_abs = max_f(max_abs, __builtin_fabsf(v));
  }
  out[0] = mn + 0.0f;
  out[1] = mx + 0.0f;
  out[2] = max_abs + 0.0f;
}

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the wire-frame and
// stream checksum.  The byte-at-a-time table loop is the scalar slot and the
// oracle the hardware kernel is checked against.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kCrc32cPoly = 0x82F63B78;

/// The byte-at-a-time table: a plain array (no std::array accessor to emit
/// out of line, see the file comment).
struct Crc32cTable {
  uint32_t entry[256];
};

constexpr Crc32cTable make_crc32c_table() {
  Crc32cTable table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    table.entry[i] = crc;
  }
  return table;
}

// constexpr (not a function-local static) so the checksum loop carries no
// static-init guard; the table lives in .rodata.
inline constexpr Crc32cTable kCrc32cTable = make_crc32c_table();

inline HZCCL_HOT uint32_t crc32c_scalar_body(const uint8_t* data, size_t n, uint32_t crc) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) c = (c >> 8) ^ kCrc32cTable.entry[(c ^ data[i]) & 0xFF];
  return ~c;
}

// ---------------------------------------------------------------------------
// Whole-block fixed-length codec (hzccl/compressor/fixed_len.hpp layout):
// after the code-length byte c come the sign plane (ceil(n/8) bytes), c/8
// full byte planes of n bytes each, and the packed high c%8 bits of every
// magnitude (ceil(n*(c%8)/8) bytes).  The scalar bodies, one pass per plane,
// are the oracle.
// ---------------------------------------------------------------------------

/// scalar_unpack / scalar_pack at a remainder width x in 1..7 known only at
/// run time.
inline void scalar_unpack_rem(int x, const uint8_t* src, size_t n, uint32_t* v) {
  switch (x) {
    case 1: return scalar_unpack<1>(src, n, v);
    case 2: return scalar_unpack<2>(src, n, v);
    case 3: return scalar_unpack<3>(src, n, v);
    case 4: return scalar_unpack<4>(src, n, v);
    case 5: return scalar_unpack<5>(src, n, v);
    case 6: return scalar_unpack<6>(src, n, v);
    default: return scalar_unpack<7>(src, n, v);
  }
}

inline void scalar_pack_rem(int x, const uint32_t* v, size_t n, uint8_t* out) {
  switch (x) {
    case 1: return scalar_pack<1>(v, n, out);
    case 2: return scalar_pack<2>(v, n, out);
    case 3: return scalar_pack<3>(v, n, out);
    case 4: return scalar_pack<4>(v, n, out);
    case 5: return scalar_pack<5>(v, n, out);
    case 6: return scalar_pack<6>(v, n, out);
    default: return scalar_pack<7>(v, n, out);
  }
}

inline HZCCL_HOT void decode_block_scalar_body(const uint8_t* src, size_t n, int c,
                                               int32_t* residuals) {
  uint32_t signs[kMaxBlockValues];
  uint32_t mags[kMaxBlockValues];
  scalar_unpack<1>(src, n, signs);
  src += (n + 7) / 8;

  std::memset(mags, 0, n * sizeof(uint32_t));
  const int byte_count = c / 8;
  for (int p = 0; p < byte_count; ++p) {
    const int shift = 8 * p;
    for (size_t i = 0; i < n; ++i) mags[i] |= static_cast<uint32_t>(src[i]) << shift;
    src += n;
  }
  const int rem = c % 8;
  if (rem > 0) {
    uint32_t hi[kMaxBlockValues];
    const int shift = 8 * byte_count;
    scalar_unpack_rem(rem, src, n, hi);
    for (size_t i = 0; i < n; ++i) mags[i] |= hi[i] << shift;
  }

  for (size_t i = 0; i < n; ++i) {
    const int32_t mag = static_cast<int32_t>(mags[i]);
    residuals[i] = signs[i] ? -mag : mag;
  }
}

inline HZCCL_HOT void encode_block_scalar_body(const uint32_t* magnitudes,
                                               const uint32_t* sign_bits, size_t n,
                                               int code_len, uint8_t* out) {
  scalar_pack<1>(sign_bits, n, out);
  out += (n + 7) / 8;

  // Full byte planes: plane k holds byte k of every magnitude.
  const int byte_count = code_len / 8;
  for (int p = 0; p < byte_count; ++p) {
    const int shift = 8 * p;
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(magnitudes[i] >> shift);
    out += n;
  }

  // Remainder bits: isolate the high (code_len % 8) bits the planes did not
  // cover (the paper's left-shift-then-right-shift trick) and pack them.
  const int rem = code_len % 8;
  if (rem > 0) {
    uint32_t hi[kMaxBlockValues];
    const int shift = 8 * byte_count;
    for (size_t i = 0; i < n; ++i) hi[i] = magnitudes[i] >> shift;
    scalar_pack_rem(rem, hi, n, out);
  }
}

/// The digest fold one prefix-sum step per value: the oracle.
inline HZCCL_HOT int64_t digest_block_scalar_body(const int32_t* residuals, size_t n, int64_t q,
                                                  uint64_t pos, uint64_t* sum, uint64_t* wsum) {
  uint64_t s = *sum;
  uint64_t w = *wsum;
  for (size_t i = 0; i < n; ++i) {
    q += residuals[i];
    const uint64_t u = static_cast<uint64_t>(q);
    s += u;
    w += (pos + i) * u;
  }
  *sum = s;
  *wsum = w;
  return q;
}

/// Closed form of the same fold, with no serial chain.  With T = n(n-1)/2,
/// summing q_j = q + r_0 + ... + r_j over the block gives
///   sum  += n*q + SA,        SA = sum_j (n - j) r_j = n*S0 - S1
///   wsum += q*(n*pos + T) + pos*SA + SB,
///                            SB = sum_j (T - j(j-1)/2) r_j = T*S0 - S2
/// where S0 = sum r_j, S1 = sum j*r_j and S2 = sum j(j-1)/2 * r_j carry
/// weights that do not depend on n.  For |r| < 2^31 and n <= 512 all three
/// are exact in int64 (|S2| < 2^56); the combination wraps mod 2^64 like
/// the serial loop, so the digest words are identical.
inline void digest_fold_sums(size_t n, int64_t q, uint64_t pos, int64_t s0, int64_t s1,
                             int64_t s2, uint64_t* sum, uint64_t* wsum) {
  const uint64_t un = n;
  const uint64_t tri = un * (un - 1) / 2;
  const uint64_t sa = un * static_cast<uint64_t>(s0) - static_cast<uint64_t>(s1);
  const uint64_t sb = tri * static_cast<uint64_t>(s0) - static_cast<uint64_t>(s2);
  const uint64_t uq = static_cast<uint64_t>(q);
  *sum += un * uq + sa;
  *wsum += uq * (un * pos + tri) + pos * sa + sb;
}

/// Portable closed-form fold; each SIMD TU's auto-vectorizer retargets it.
inline HZCCL_HOT int64_t digest_block_body(const int32_t* residuals, size_t n, int64_t q,
                                           uint64_t pos, uint64_t* sum, uint64_t* wsum) {
  int64_t s0 = 0;
  int64_t s1 = 0;
  int64_t s2 = 0;
  for (size_t j = 0; j < n; ++j) {
    const int32_t jj = static_cast<int32_t>(j);
    const int64_t r = residuals[j];
    s0 += r;
    s1 += static_cast<int64_t>(jj) * r;
    s2 += static_cast<int64_t>(jj * (jj - 1) / 2) * r;
  }
  digest_fold_sums(n, q, pos, s0, s1, s2, sum, wsum);
  return q + s0;
}

/// Prefix sum and dequantize of a decoded residual block: the chain
/// q_j = q + r_0 + ... + r_j in int64, out[j] = Quantizer::dequantize(q_j).
inline int64_t dequantize_body(const int32_t* residuals, size_t n, int64_t q, double twice_eb,
                               float* out) {
  for (size_t i = 0; i < n; ++i) {
    q += residuals[i];
    out[i] = static_cast<float>(static_cast<double>(q) * twice_eb);
  }
  return q;
}

// ---------------------------------------------------------------------------
// Chunk walks (the decompress_chunk, fold_chunk and combine_chunk slots).
// walk_blocks is the one walk: it validates every block of one or two
// chains, cuts the short last block and rejects trailing bytes; the slots
// at each level hand it their block visitors.  The scalar slots visit one
// block at a time with the scalar block codec and the per-block consumers
// (serial prefix sum, serial digest fold, int64 merge): they are the
// oracle.
// ---------------------------------------------------------------------------

/// The raw-block marker and the largest code length of fixed_len.hpp
/// (repeated here: that header's inline functions must not be shared
/// across the variant TUs, see the file comment).
inline constexpr int kRawCode = 0xFF;
inline constexpr int kMaxCode = 31;

inline size_t min_size(size_t a, size_t b) { return b < a ? b : a; }

/// Encoded bytes of a block of n values at code length c in 0..31,
/// the code-length byte included (fixed_len.hpp's encoded_block_size).
inline size_t block_bytes(int c, size_t n) {
  if (c == 0) return 1;
  const auto uc = static_cast<size_t>(c);
  return 1 + (n + 7) / 8 + (uc / 8) * n + (n * (uc % 8) + 7) / 8;
}

/// One validated block of a chunk's chain.
struct ChunkBlock {
  const uint8_t* at = nullptr;  ///< its code-length byte
  int code = 0;                 ///< 0 (constant), 1..31 (residual) or kRawCode
  size_t size = 0;              ///< its bytes, the code-length byte included
};

/// The block of n values at src, checked against end the way decode_block
/// and peek_block_size check it: present, a known code length, all bytes
/// in [src, end).
inline ChunkStatus parse_block(const uint8_t* src, const uint8_t* end, size_t n, ChunkBlock& b) {
  if (src >= end) return ChunkStatus::kEmptyBlock;
  const size_t avail = static_cast<size_t>(end - src);
  b.at = src;
  b.code = *src;
  if (b.code == kRawCode) {
    b.size = 1 + 4 * n;
    return b.size > avail ? ChunkStatus::kTruncatedRaw : ChunkStatus::kOk;
  }
  if (b.code > kMaxCode) return ChunkStatus::kBadCodeLength;
  b.size = block_bytes(b.code, n);
  return b.size > avail ? ChunkStatus::kTruncatedBlock : ChunkStatus::kOk;
}

/// The one chunk walk: K block chains (one for decompress and fold, two
/// for combine) of `count` values in lockstep, blocks of block_len with a
/// short last one.  Each step validates block k of every chain, in chain
/// order, then calls visit(blocks, pos, n) with the block's first value
/// pos; a non-kOk status from either ends the walk.  After the last block
/// every chain must end exactly (kTrailingBytes otherwise).
template <int K, class Visit>
inline ChunkStatus walk_blocks(const uint8_t* const (&payload)[K], const size_t (&size)[K],
                               size_t count, size_t block_len, Visit&& visit) {
  const uint8_t* src[K];
  const uint8_t* end[K];
  for (int s = 0; s < K; ++s) {
    src[s] = payload[s];
    end[s] = payload[s] + size[s];
  }
  for (size_t pos = 0; pos < count;) {
    const size_t n = min_size(block_len, count - pos);
    ChunkBlock blocks[K];
    for (int s = 0; s < K; ++s) {
      const ChunkStatus st = parse_block(src[s], end[s], n, blocks[s]);
      if (st != ChunkStatus::kOk) return st;
    }
    const ChunkStatus st = visit(blocks, pos, n);
    if (st != ChunkStatus::kOk) return st;
    for (int s = 0; s < K; ++s) src[s] += blocks[s].size;
    pos += n;
  }
  for (int s = 0; s < K; ++s) {
    if (src[s] != end[s]) return ChunkStatus::kTrailingBytes;
  }
  return ChunkStatus::kOk;
}

/// walk_blocks over one chain, each block handed to the visitor by kind:
/// v.raw(floats, pos, n), v.constant(pos, n) or v.residual(payload, c, pos,
/// n), payload being the bytes after the code-length byte.
template <class Visitor>
inline ChunkStatus walk_chain(const uint8_t* payload, size_t size, size_t count,
                              size_t block_len, Visitor& v) {
  const uint8_t* const chains[1] = {payload};
  const size_t sizes[1] = {size};
  return walk_blocks<1>(chains, sizes, count, block_len,
                        [&](const ChunkBlock (&b)[1], size_t pos, size_t n) {
                          if (b[0].code == kRawCode) {
                            v.raw(b[0].at + 1, pos, n);
                          } else if (b[0].code == 0) {
                            v.constant(pos, n);
                          } else {
                            v.residual(b[0].at + 1, b[0].code, pos, n);
                          }
                          return ChunkStatus::kOk;
                        });
}

/// Quantizer::dequantize.
inline float dequantize_value(int64_t q, double twice_eb) {
  return static_cast<float>(static_cast<double>(q) * twice_eb);
}

inline void fill_floats(float* out, size_t n, float v) {
  for (size_t i = 0; i < n; ++i) out[i] = v;
}

/// Digest::accumulate_run: a run of n chain values q at 1-based positions
/// [pos, pos + n), in O(1).
inline void fold_run(int64_t q, uint64_t pos, uint64_t n, uint64_t* sum, uint64_t* wsum) {
  const auto u = static_cast<uint64_t>(q);
  *sum += u * n;
  const uint64_t tri = (n % 2 == 0) ? (n / 2) * (n - 1) : n * ((n - 1) / 2);
  *wsum += u * (n * pos + tri);
}

/// Decompress a chunk block by block: DecodeBlock into a stack block, then
/// the serial prefix sum and dequantize.
template <auto DecodeBlock>
inline ChunkStatus decompress_blockwise(const uint8_t* payload, size_t size, size_t count,
                                        uint32_t block_len, int64_t q, double twice_eb,
                                        float* out) {
  struct Visitor {
    int64_t q;
    double twice_eb;
    float* out;
    void raw(const uint8_t* floats, size_t pos, size_t n) {
      std::memcpy(out + pos, floats, n * sizeof(float));
    }
    void constant(size_t pos, size_t n) { fill_floats(out + pos, n, dequantize_value(q, twice_eb)); }
    void residual(const uint8_t* p, int c, size_t pos, size_t n) {
      int32_t r[kMaxBlockValues];
      DecodeBlock(p, n, c, r);
      q = dequantize_body(r, n, q, twice_eb, out + pos);
    }
  } v{q, twice_eb, out};
  return walk_chain(payload, size, count, block_len, v);
}

/// Fold a chunk's digest block by block: DecodeBlock into a stack block,
/// then FoldBlock (the serial or the closed-form fold); constant blocks
/// fold as a run.
template <auto DecodeBlock, auto FoldBlock>
inline ChunkStatus fold_blockwise(const uint8_t* payload, size_t size, size_t count,
                                  uint32_t block_len, int64_t q, uint64_t* sum, uint64_t* wsum) {
  struct Visitor {
    int64_t q;
    uint64_t sum = 0;
    uint64_t wsum = 0;
    void raw(const uint8_t*, size_t, size_t) {}
    void constant(size_t pos, size_t n) { fold_run(q, pos + 1, n, &sum, &wsum); }
    void residual(const uint8_t* p, int c, size_t pos, size_t n) {
      int32_t r[kMaxBlockValues];
      DecodeBlock(p, n, c, r);
      q = FoldBlock(r, n, q, pos + 1, &sum, &wsum);
    }
  } v{q};
  const ChunkStatus st = walk_chain(payload, size, count, block_len, v);
  *sum = v.sum;
  *wsum = v.wsum;
  return st;
}

/// Pipeline 2's copy for sign -1, the only negated block copy (hz_sub's,
/// and hz_negate's against a constant chain): a residual block with its
/// sign plane inverted and the padding bits past value n kept zero, or a
/// raw block with each float's sign bit flipped.
inline void copy_negated(const ChunkBlock& b, size_t n, uint8_t* out) {
  std::memcpy(out, b.at, b.size);
  if (b.code == kRawCode) {
    for (size_t i = 0; i < n; ++i) out[1 + 4 * i + 3] ^= 0x80u;
    return;
  }
  const size_t sign_bytes = (n + 7) / 8;
  for (size_t i = 0; i < sign_bytes; ++i) out[1 + i] = static_cast<uint8_t>(~out[1 + i]);
  if (n % 8 != 0) out[sign_bytes] &= static_cast<uint8_t>((1u << (n % 8)) - 1);
}

/// The combine walk: both chains through walk_blocks, pipelines 1-3 here
/// and pipeline 4 through merge(pa, ca, pb, cb, n, out, avail, &bytes) —
/// the level's decode-merge-encode of one residual pair, returning kOk with
/// the bytes it wrote, kOverflow or kEncodeCapacity.
template <int Sign, class Merge>
inline CombineChunkResult combine_walk(const uint8_t* a, size_t size_a, const uint8_t* b,
                                       size_t size_b, size_t count, uint32_t block_len,
                                       uint8_t* out, size_t capacity, Merge&& merge) {
  CombineChunkResult res;
  const uint8_t* const chains[2] = {a, b};
  const size_t sizes[2] = {size_a, size_b};
  res.status = walk_blocks<2>(
      chains, sizes, count, block_len, [&](const ChunkBlock (&blk)[2], size_t, size_t n) {
        const ChunkBlock& x = blk[0];
        const ChunkBlock& y = blk[1];
        const size_t avail = capacity - res.bytes;
        uint8_t* const dst = out + res.bytes;
        if (x.code == 0 && y.code == 0) {
          if (avail < 1) return ChunkStatus::kCopyCapacity;
          *dst = 0;
          res.bytes += 1;
          ++res.p1;
        } else if (x.code == 0) {
          if (y.size > avail) {
            return Sign > 0 ? ChunkStatus::kCopyCapacity : ChunkStatus::kNegateCapacity;
          }
          if constexpr (Sign > 0) {
            std::memcpy(dst, y.at, y.size);
          } else {
            copy_negated(y, n, dst);
          }
          res.bytes += y.size;
          res.copied_bytes += y.size;
          ++res.p2;
        } else if (y.code == 0) {
          if (x.size > avail) return ChunkStatus::kCopyCapacity;
          std::memcpy(dst, x.at, x.size);
          res.bytes += x.size;
          res.copied_bytes += x.size;
          ++res.p3;
        } else {
          if (x.code == kRawCode || y.code == kRawCode) return ChunkStatus::kRawInMerge;
          size_t written = 0;
          const ChunkStatus st = merge(x.at + 1, x.code, y.at + 1, y.code, n, dst, avail, &written);
          if (st != ChunkStatus::kOk) return st;
          res.bytes += written;
          res.p4_elements += n;
          ++res.p4;
        }
        return ChunkStatus::kOk;
      });
  return res;
}

/// Bits needed for a merge guard that fits in 31 bits (0 for 0).
inline int guard_code_length(uint64_t guard) {
  return guard == 0 ? 0 : 64 - __builtin_clzll(guard);
}

/// Pipeline 4 block by block: DecodeBlock both payloads into stack blocks,
/// the int64 merge (combine_body), then EncodeBlock from the merged
/// magnitude/sign split.
template <auto DecodeBlock, auto EncodeBlock>
inline CombineChunkResult combine_blockwise(const uint8_t* a, size_t size_a, const uint8_t* b,
                                            size_t size_b, size_t count, uint32_t block_len,
                                            int sign_b, uint8_t* out, size_t capacity) {
  const auto merge = [&](const uint8_t* pa, int ca, const uint8_t* pb, int cb, size_t n,
                         uint8_t* dst, size_t avail, size_t* written) {
    int32_t ra[kMaxBlockValues];
    int32_t rb[kMaxBlockValues];
    uint32_t mags[kMaxBlockValues];
    uint32_t signs[kMaxBlockValues];
    DecodeBlock(pa, n, ca, ra);
    DecodeBlock(pb, n, cb, rb);
    const uint64_t guard = combine_body(ra, rb, n, sign_b, mags, signs);
    if (guard > static_cast<uint64_t>(INT32_MAX)) return ChunkStatus::kOverflow;
    const int c = guard_code_length(guard);
    *written = block_bytes(c, n);
    if (*written > avail) return ChunkStatus::kEncodeCapacity;
    dst[0] = static_cast<uint8_t>(c);
    if (c > 0) EncodeBlock(mags, signs, n, c, dst + 1);
    return ChunkStatus::kOk;
  };
  return sign_b >= 0
             ? combine_walk<+1>(a, size_a, b, size_b, count, block_len, out, capacity, merge)
             : combine_walk<-1>(a, size_a, b, size_b, count, block_len, out, capacity, merge);
}

/// The compress walk block by block: QuantizePredict (the level's fused
/// block pass) into stack blocks, the raw fallback or the range guard, the
/// digest fold of the block's q, then EncodeBlock from the magnitude/sign
/// split the pass left.
template <auto QuantizePredict, auto EncodeBlock>
inline CompressChunkResult compress_blockwise(const float* data, size_t count, uint32_t block_len,
                                              double inv_twice_eb, int32_t q0, bool digest,
                                              uint8_t* out, size_t capacity) {
  CompressChunkResult res;
  int64_t q[kMaxBlockValues];
  uint32_t mags[kMaxBlockValues];
  uint32_t signs[kMaxBlockValues];
  int32_t q_prev = q0;
  uint64_t sum = 0;
  uint64_t wsum = 0;
  for (size_t pos = 0; pos < count;) {
    const size_t n = min_size(block_len, count - pos);
    const QuantizePredictResult s =
        QuantizePredict(data + pos, n, inv_twice_eb, q_prev, /*restart=*/false, q, mags, signs);
    const size_t avail = capacity - res.bytes;
    uint8_t* const dst = out + res.bytes;
    if (s.raw != RawVerdict::kNone) {
      ++(s.raw == RawVerdict::kNonFinite ? res.nonfinite_blocks : res.denormal_blocks);
      if (1 + 4 * n > avail) {
        res.status = ChunkStatus::kRawCapacity;
        return res;
      }
      dst[0] = static_cast<uint8_t>(kRawCode);
      std::memcpy(dst + 1, data + pos, n * sizeof(float));
      res.bytes += 1 + 4 * n;
      res.emitted_raw = true;
      pos += n;
      continue;
    }
    if (s.q_guard > static_cast<uint64_t>(kMaxQuantValue)) {
      res.status = ChunkStatus::kQuantRange;
      return res;
    }
    q_prev = static_cast<int32_t>(q[n - 1]);
    if (digest) {
      for (size_t i = 0; i < n; ++i) {
        const auto u = static_cast<uint64_t>(q[i]);
        sum += u;
        wsum += (pos + 1 + i) * u;
      }
    }
    const int c = guard_code_length(s.max_mag);
    const size_t size = block_bytes(c, n);
    if (size > avail) {
      res.status = c == 0 ? ChunkStatus::kConstantCapacity : ChunkStatus::kEncodeCapacity;
      return res;
    }
    dst[0] = static_cast<uint8_t>(c);
    if (c > 0) EncodeBlock(mags, signs, n, c, dst + 1);
    res.bytes += size;
    pos += n;
  }
  res.sum = sum;
  res.wsum = wsum;
  return res;
}

inline HZCCL_HOT CompressChunkResult compress_chunk_scalar_body(const float* data, size_t count,
                                                               uint32_t block_len,
                                                               double inv_twice_eb, int32_t q0,
                                                               bool digest, uint8_t* out,
                                                               size_t capacity) {
  return compress_blockwise<quantize_predict_body, encode_block_scalar_body>(
      data, count, block_len, inv_twice_eb, q0, digest, out, capacity);
}

inline HZCCL_HOT ChunkStatus decompress_chunk_scalar_body(const uint8_t* payload, size_t size,
                                                          size_t count, uint32_t block_len,
                                                          int64_t q, double twice_eb,
                                                          float* out) {
  return decompress_blockwise<decode_block_scalar_body>(payload, size, count, block_len, q,
                                                        twice_eb, out);
}

inline HZCCL_HOT ChunkStatus fold_chunk_scalar_body(const uint8_t* payload, size_t size,
                                                    size_t count, uint32_t block_len, int64_t q,
                                                    uint64_t* sum, uint64_t* wsum) {
  return fold_blockwise<decode_block_scalar_body, digest_block_scalar_body>(
      payload, size, count, block_len, q, sum, wsum);
}

inline HZCCL_HOT CombineChunkResult combine_chunk_scalar_body(const uint8_t* a, size_t size_a,
                                                              const uint8_t* b, size_t size_b,
                                                              size_t count, uint32_t block_len,
                                                              int sign_b, uint8_t* out,
                                                              size_t capacity) {
  return combine_blockwise<decode_block_scalar_body, encode_block_scalar_body>(
      a, size_a, b, size_b, count, block_len, sign_b, out, capacity);
}

// ---------------------------------------------------------------------------
// AVX2 + BMI2: the PDEP/PEXT block codec, the SZx scan and the fused block
// pass.
// ---------------------------------------------------------------------------
#if defined(__AVX2__) && defined(__BMI2__)

/// X low bits set in each of the 8 bytes: the PDEP/PEXT routing mask that
/// maps a packed 8*X-bit group onto one byte per value.
constexpr uint64_t spread_mask(int x) {
  const uint64_t low = (1ull << x) - 1;
  uint64_t m = 0;
  for (int b = 0; b < 8; ++b) m |= low << (8 * b);
  return m;
}

/// Byte B of each of eight uint32 lanes as one 64-bit word: one in-lane
/// shuffle + a cross-lane merge.
template <int B>
inline uint64_t lane_bytes8(__m256i x) {
  const __m256i ctrl = _mm256_setr_epi8(B, 4 + B, 8 + B, 12 + B, -1, -1, -1, -1, -1, -1, -1, -1,
                                        -1, -1, -1, -1, B, 4 + B, 8 + B, 12 + B, -1, -1, -1, -1,
                                        -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i g = _mm256_shuffle_epi8(x, ctrl);
  const uint64_t lo = static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_castsi256_si128(g)));
  const uint64_t hi = static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_extracti128_si256(g, 1)));
  return lo | (hi << 32);
}

inline void store_u64(uint8_t* dst, uint64_t bytes) { std::memcpy(dst, &bytes, sizeof(bytes)); }

/// Exactly X (1..7) little-endian bytes, as 4/2/1-byte pieces joined in a
/// register: one memcpy of X bytes into a stack word would go through
/// partial stores that a wider reload cannot forward from.
template <int X>
inline uint64_t load_le(const uint8_t* p) {
  uint64_t v = 0;
  int o = 0;
  if constexpr ((X & 4) != 0) {
    uint32_t a = 0;
    std::memcpy(&a, p, 4);
    v = a;
    o = 4;
  }
  if constexpr ((X & 2) != 0) {
    uint16_t b = 0;
    std::memcpy(&b, p + o, 2);
    v |= static_cast<uint64_t>(b) << (8 * o);
    o += 2;
  }
  if constexpr ((X & 1) != 0) v |= static_cast<uint64_t>(p[o]) << (8 * o);
  return v;
}

template <int X>
inline void store_le(uint8_t* p, uint64_t v) {
  int o = 0;
  if constexpr ((X & 4) != 0) {
    const auto a = static_cast<uint32_t>(v);
    std::memcpy(p, &a, 4);
    o = 4;
  }
  if constexpr ((X & 2) != 0) {
    const auto b = static_cast<uint16_t>(v >> (8 * o));
    std::memcpy(p + o, &b, 2);
    o += 2;
  }
  if constexpr ((X & 1) != 0) p[o] = static_cast<uint8_t>(v >> (8 * o));
}

// Whole-block codec over the PDEP/PEXT group codecs.  Each 8-value group
// loads and stores exactly its own bytes (its X remainder bytes through
// load_le/store_le), so every full group stays vectorized at any n; only
// the n % 8 values after the last full group take a scalar tail.  The code
// length is a template parameter, picked by one switch per block.

template <int C>
struct DecodeAvx2 {
  static constexpr int kPlanes = C / 8;
  static constexpr int kRem = C % 8;

  static void run(const uint8_t* src, size_t n, int32_t* r) {
    const uint8_t* const signs = src;
    const uint8_t* const planes = src + (n + 7) / 8;
    const uint8_t* const rem = planes + kPlanes * n;
    const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256i mag = _mm256_setzero_si256();
      for (int p = 0; p < kPlanes; ++p) {
        const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(planes + p * n + i));
        mag = _mm256_or_si256(mag, _mm256_slli_epi32(_mm256_cvtepu8_epi32(b), 8 * p));
      }
      if constexpr (kRem > 0) {
        const uint64_t b8 = _pdep_u64(load_le<kRem>(rem + (i / 8) * kRem), spread_mask(kRem));
        const __m128i b = _mm_cvtsi64_si128(static_cast<long long>(b8));
        mag = _mm256_or_si256(mag, _mm256_slli_epi32(_mm256_cvtepu8_epi32(b), 8 * kPlanes));
      }
      // Sign byte -> all-ones lanes; (m ^ -1) - (-1) negates.
      const __m256i neg =
          _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(signs[i / 8]), bit), bit);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i),
                          _mm256_sub_epi32(_mm256_xor_si256(mag, neg), neg));
    }
    if (i < n) {
      const size_t t = n - i;
      uint32_t hi[8] = {};
      if constexpr (kRem > 0) unpack_tail<kRem>(rem + (i / 8) * kRem, t, hi);
      const uint32_t sign_byte = signs[i / 8];
      for (size_t k = 0; k < t; ++k) {
        uint32_t mag = hi[k] << (8 * kPlanes);
        for (int p = 0; p < kPlanes; ++p) {
          mag |= static_cast<uint32_t>(planes[p * n + i + k]) << (8 * p);
        }
        const int32_t m = static_cast<int32_t>(mag);
        r[i + k] = ((sign_byte >> k) & 1u) ? -m : m;
      }
    }
  }
};

template <int C>
struct EncodeAvx2 {
  static constexpr int kPlanes = C / 8;
  static constexpr int kRem = C % 8;

  static void run(const uint32_t* mags, const uint32_t* signs, size_t n, uint8_t* out) {
    uint8_t* const sign_plane = out;
    uint8_t* const planes = out + (n + 7) / 8;
    uint8_t* const rem = planes + kPlanes * n;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mags + i));
      const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(signs + i));
      // Bit 0 of each sign word, moved to the lane's sign bit.
      sign_plane[i / 8] = static_cast<uint8_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(s, 31))));
      if constexpr (kPlanes > 0) store_u64(planes + i, lane_bytes8<0>(m));
      if constexpr (kPlanes > 1) store_u64(planes + n + i, lane_bytes8<1>(m));
      if constexpr (kPlanes > 2) store_u64(planes + 2 * n + i, lane_bytes8<2>(m));
      if constexpr (kRem > 0) {
        store_le<kRem>(rem + (i / 8) * kRem,
                       _pext_u64(lane_bytes8<kPlanes>(m), spread_mask(kRem)));
      }
    }
    if (i < n) {
      const size_t t = n - i;
      pack_tail<1>(signs + i, t, sign_plane + i / 8);
      for (int p = 0; p < kPlanes; ++p) {
        for (size_t k = 0; k < t; ++k) {
          planes[p * n + i + k] = static_cast<uint8_t>(mags[i + k] >> (8 * p));
        }
      }
      if constexpr (kRem > 0) {
        uint32_t hi[8];
        for (size_t k = 0; k < t; ++k) hi[k] = mags[i + k] >> (8 * kPlanes);
        pack_tail<kRem>(hi, t, rem + (i / 8) * kRem);
      }
    }
  }
};

/// Op<C>::run(args...) for a code length c in 1..31 known only at run time.
template <template <int> class Op, class... Args>
inline void with_code_len(int c, Args... args) {
  switch (c) {
    case 1: return Op<1>::run(args...);
    case 2: return Op<2>::run(args...);
    case 3: return Op<3>::run(args...);
    case 4: return Op<4>::run(args...);
    case 5: return Op<5>::run(args...);
    case 6: return Op<6>::run(args...);
    case 7: return Op<7>::run(args...);
    case 8: return Op<8>::run(args...);
    case 9: return Op<9>::run(args...);
    case 10: return Op<10>::run(args...);
    case 11: return Op<11>::run(args...);
    case 12: return Op<12>::run(args...);
    case 13: return Op<13>::run(args...);
    case 14: return Op<14>::run(args...);
    case 15: return Op<15>::run(args...);
    case 16: return Op<16>::run(args...);
    case 17: return Op<17>::run(args...);
    case 18: return Op<18>::run(args...);
    case 19: return Op<19>::run(args...);
    case 20: return Op<20>::run(args...);
    case 21: return Op<21>::run(args...);
    case 22: return Op<22>::run(args...);
    case 23: return Op<23>::run(args...);
    case 24: return Op<24>::run(args...);
    case 25: return Op<25>::run(args...);
    case 26: return Op<26>::run(args...);
    case 27: return Op<27>::run(args...);
    case 28: return Op<28>::run(args...);
    case 29: return Op<29>::run(args...);
    case 30: return Op<30>::run(args...);
    default: return Op<31>::run(args...);
  }
}

inline HZCCL_HOT void decode_block_avx2_body(const uint8_t* src, size_t n, int c, int32_t* r) {
  with_code_len<DecodeAvx2>(c, src, n, r);
}

inline HZCCL_HOT void encode_block_avx2_body(const uint32_t* mags, const uint32_t* signs,
                                             size_t n, int c, uint8_t* out) {
  with_code_len<EncodeAvx2>(c, mags, signs, n, out);
}

// The chunk slots at AVX2: the walk with the PDEP/PEXT block codec, each
// block's consumer (the dequantize loop, the closed-form digest fold, the
// int64 merge) recompiled under AVX2.

inline HZCCL_HOT ChunkStatus decompress_chunk_avx2_body(const uint8_t* payload, size_t size,
                                                        size_t count, uint32_t block_len,
                                                        int64_t q, double twice_eb, float* out) {
  return decompress_blockwise<decode_block_avx2_body>(payload, size, count, block_len, q,
                                                      twice_eb, out);
}

inline HZCCL_HOT ChunkStatus fold_chunk_avx2_body(const uint8_t* payload, size_t size,
                                                  size_t count, uint32_t block_len, int64_t q,
                                                  uint64_t* sum, uint64_t* wsum) {
  return fold_blockwise<decode_block_avx2_body, digest_block_body>(payload, size, count,
                                                                   block_len, q, sum, wsum);
}

inline HZCCL_HOT CombineChunkResult combine_chunk_avx2_body(const uint8_t* a, size_t size_a,
                                                            const uint8_t* b, size_t size_b,
                                                            size_t count, uint32_t block_len,
                                                            int sign_b, uint8_t* out,
                                                            size_t capacity) {
  return combine_blockwise<decode_block_avx2_body, encode_block_avx2_body>(
      a, size_a, b, size_b, count, block_len, sign_b, out, capacity);
}

/// 8-lane SZx scan.  min/max are idempotent, so the tail is an *overlapping*
/// full-width load ending at data[n) — no masked ops, no scalar epilogue.
/// |v| is a sign-bit andnot; the final `+ 0.0f` canonicalization makes the
/// result independent of which lane a tied ±0 survives in (see
/// szx_scan_body), which is what buys byte-identity with the scalar oracle.
inline HZCCL_HOT void szx_scan_avx2_body(const float* data, size_t n, float* out) {
  if (n < 8) {
    szx_scan_body(data, n, out);
    return;
  }
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 vmn = _mm256_loadu_ps(data);
  __m256 vmx = vmn;
  __m256 vab = _mm256_andnot_ps(sign, vmn);
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(data + i);
    vmn = _mm256_min_ps(vmn, v);
    vmx = _mm256_max_ps(vmx, v);
    vab = _mm256_max_ps(vab, _mm256_andnot_ps(sign, v));
  }
  if (i < n) {
    const __m256 v = _mm256_loadu_ps(data + n - 8);
    vmn = _mm256_min_ps(vmn, v);
    vmx = _mm256_max_ps(vmx, v);
    vab = _mm256_max_ps(vab, _mm256_andnot_ps(sign, v));
  }
  const auto hreduce = [](__m256 v, auto op) {
    __m128 m = op(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    m = op(m, _mm_movehl_ps(m, m));
    m = op(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
  };
  const auto min_op = [](__m128 a, __m128 b) { return _mm_min_ps(a, b); };
  const auto max_op = [](__m128 a, __m128 b) { return _mm_max_ps(a, b); };
  out[0] = hreduce(vmn, min_op) + 0.0f;
  out[1] = hreduce(vmx, max_op) + 0.0f;
  out[2] = hreduce(vab, max_op) + 0.0f;
}

/// The fused block pass at AVX2: classification on 8-float groups and
/// prediction on 8 int32 lanes, around a scalar llrint (AVX2 has no exact
/// packed double->int64 convert, and exactness beats throughput).  The
/// llrint is CVTSD2SI itself, which is what llrint is on x86-64 (the
/// current rounding mode, and the 0x8000... indefinite on out-of-range
/// input) but inlined rather than a libm call.  The quantize loop also
/// writes the int32-truncated chain t[1..n] after t[0] = q[-1], so lane i's
/// predecessor is one unaligned load away.  A residual of two int32 values
/// has |r| < 2^32: its magnitude is the 32-bit difference taken in the
/// order that is non-negative, its sign one signed compare.
inline HZCCL_HOT QuantizePredictResult quantize_predict_avx2_body(const float* data, size_t n,
                                                                  double inv_twice_eb,
                                                                  int32_t q_prev, bool restart,
                                                                  int64_t* q, uint32_t* mags,
                                                                  uint32_t* signs) {
  QuantizePredictResult res;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i exp_mask = _mm256_set1_epi32(static_cast<int>(kFloatExpMask));
  const __m256i mant_mask = _mm256_set1_epi32(static_cast<int>(kFloatMantissaMask));
  __m256i nonfinite = zero;
  RawCounts counts;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i exp = _mm256_and_si256(bits, exp_mask);
    nonfinite = _mm256_or_si256(nonfinite, _mm256_cmpeq_epi32(exp, exp_mask));
    const __m256i mant_zero = _mm256_cmpeq_epi32(_mm256_and_si256(bits, mant_mask), zero);
    const __m256i sub = _mm256_andnot_si256(mant_zero, _mm256_cmpeq_epi32(exp, zero));
    counts.subnormals += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(sub)))));
  }
  counts.nonfinite = static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(nonfinite)));
  count_raw_lanes(data + i, n - i, counts);
  res.raw = raw_verdict(counts, n);
  if (res.raw != RawVerdict::kNone || n == 0) return res;

  int32_t t[kMaxBlockValues + 1];
  uint64_t guard = 0;
  for (size_t j = 0; j < n; ++j) {
    const long long qi = _mm_cvtsd_si64(_mm_set_sd(static_cast<double>(data[j]) * inv_twice_eb));
    q[j] = qi;
    guard |= quant_magnitude(qi);
    t[j + 1] = static_cast<int32_t>(qi);
  }
  t[0] = restart ? static_cast<int32_t>(q[0]) : q_prev;
  res.q_guard = guard;

  const __m256i one = _mm256_set1_epi32(1);
  __m256i acc = zero;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + j + 1));
    const __m256i prev = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + j));
    const __m256i neg = _mm256_cmpgt_epi32(prev, cur);
    const __m256i mag =
        _mm256_blendv_epi8(_mm256_sub_epi32(cur, prev), _mm256_sub_epi32(prev, cur), neg);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mags + j), mag);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(signs + j), _mm256_and_si256(neg, one));
    acc = _mm256_or_si256(acc, mag);
  }
  __m128i lanes = _mm_or_si128(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  lanes = _mm_or_si128(lanes, _mm_shuffle_epi32(lanes, 0x4E));
  lanes = _mm_or_si128(lanes, _mm_shuffle_epi32(lanes, 0xB1));
  res.max_mag = static_cast<uint32_t>(_mm_cvtsi128_si32(lanes));
  if (j < n) res.max_mag |= predict_body(q + j, n - j, t[j], mags + j, signs + j);
  return res;
}

/// The compress walk at AVX2: the AVX2 block pass and PDEP/PEXT encoder
/// per block, the digest fold recompiled under AVX2.
inline HZCCL_HOT CompressChunkResult compress_chunk_avx2_body(const float* data, size_t count,
                                                             uint32_t block_len,
                                                             double inv_twice_eb, int32_t q0,
                                                             bool digest, uint8_t* out,
                                                             size_t capacity) {
  return compress_blockwise<quantize_predict_avx2_body, encode_block_avx2_body>(
      data, count, block_len, inv_twice_eb, q0, digest, out, capacity);
}

#endif  // __AVX2__ && __BMI2__

// ---------------------------------------------------------------------------
// SSE4.2: hardware CRC-32C.  The crc32 instruction retires one 8-byte step
// per cycle but has a 3-cycle latency, so one dependent chain runs at a
// third of its throughput.  The kernel runs three chains over adjacent
// lanes of kCrc32cLaneBytes and joins them by CRC linearity:
//   reg(s, A || B) = shift_|B|(reg(s, A)) ^ reg(0, B),
// where reg(s, M) is the raw register after bytes M from state s and
// shift_L advances a register over L zero bytes.  shift_L is linear in the
// register, so a constexpr table of its value on every byte in each of the
// four byte positions turns the join into four lookups.
// ---------------------------------------------------------------------------
#if defined(__SSE4_2__)

static_assert(kCrc32cLaneBytes % 8 == 0, "crc32 lanes advance 8 bytes per step");

/// a * b modulo the CRC-32C polynomial, in the reflected bit order (bit 31
/// is x^0); a must be non-zero.
constexpr uint32_t crc32c_multmodp(uint32_t a, uint32_t b) {
  uint32_t m = uint32_t{1} << 31;
  uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kCrc32cPoly : b >> 1;
  }
  return p;
}

/// shift_L for L = kCrc32cLaneBytes: entry[k][b] is (b << 8k) * x^(8L).
struct Crc32cLaneShift {
  uint32_t entry[4][256];
};

constexpr Crc32cLaneShift make_crc32c_lane_shift() {
  uint32_t x8l = uint32_t{1} << 31;  // x^0
  for (size_t i = 0; i < kCrc32cLaneBytes; ++i) {
    x8l = crc32c_multmodp(x8l, uint32_t{1} << 23);  // * x^8
  }
  Crc32cLaneShift table{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) table.entry[k][b] = crc32c_multmodp(x8l, b << (8 * k));
  }
  return table;
}

inline constexpr Crc32cLaneShift kCrc32cLaneShift = make_crc32c_lane_shift();

inline uint64_t crc32c_lane_shift(uint64_t c) {
  const auto& t = kCrc32cLaneShift.entry;
  return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^
         t[3][(c >> 24) & 0xFF];
}

inline uint64_t load_u64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline HZCCL_HOT uint32_t crc32c_sse42_body(const uint8_t* data, size_t n, uint32_t crc) {
  constexpr size_t kLane = kCrc32cLaneBytes;
  uint64_t c0 = static_cast<uint32_t>(~crc);
  for (; n >= 3 * kLane; n -= 3 * kLane, data += 3 * kLane) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(data + i));
      c1 = _mm_crc32_u64(c1, load_u64(data + kLane + i));
      c2 = _mm_crc32_u64(c2, load_u64(data + 2 * kLane + i));
    }
    c0 = crc32c_lane_shift(c0) ^ c1;
    c0 = crc32c_lane_shift(c0) ^ c2;
  }
  for (; n >= 8; n -= 8, data += 8) c0 = _mm_crc32_u64(c0, load_u64(data));
  uint32_t c = static_cast<uint32_t>(c0);
  for (; n > 0; --n, ++data) c = _mm_crc32_u8(c, *data);
  return ~c;
}

#endif  // __SSE4_2__


// ---------------------------------------------------------------------------
// AVX-512 (F/BW/DQ/VL/VBMI) with VPCLMULQDQ: the fused block pass, the SZx
// scan, the whole-block codec and the three chunk walks over it, and the
// carry-less CRC-32C.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) &&   \
    defined(__AVX512VL__) && defined(__AVX512VBMI__) && defined(__AVX2__) &&    \
    defined(__BMI2__) && defined(__PCLMUL__) && defined(__VPCLMULQDQ__)

/// VPMULTISHIFTQB control word: byte k of every qword selects the 8 bits
/// starting at bit offset k*X — value k's field within its group's lane.
constexpr uint64_t multishift_ctrl(int x) {
  uint64_t c = 0;
  for (int k = 0; k < 8; ++k) c |= static_cast<uint64_t>(k * x) << (8 * k);
  return c;
}

/// Lanes [0, k) of a 16-lane mask (k clamped to 16).
inline __mmask16 lane_mask16(size_t k) {
  return k >= 16 ? static_cast<__mmask16>(0xFFFF) : static_cast<__mmask16>((1u << k) - 1);
}

/// The fused block pass in one masked walk.  The raw verdict comes first,
/// from exponent tests on 16-float groups (loads only, so a raw block
/// leaves every output untouched); then each 16-float group is quantized,
/// stored and predicted while its values are in registers.  VCVTPD2QQ
/// rounds per MXCSR exactly like llrint (both default to round-nearest-
/// even, both yield the 0x8000... indefinite on out-of-range input), so q
/// and the guard match quantize_body bit for bit even on values the caller
/// is about to reject.  Prediction runs on the group's 16 int32 truncations
/// (one VPERMT2D), the predecessor lane coming from VALIGND over the
/// previous group, and the n % 16 tail runs the same body under masks:
/// masked loads read exactly n floats and masked stores write exactly n
/// lanes.
inline HZCCL_HOT QuantizePredictResult quantize_predict_avx512_body(
    const float* data, size_t n, double inv_twice_eb, int32_t q_prev, bool restart, int64_t* q,
    uint32_t* mags, uint32_t* signs) {
  QuantizePredictResult res;
  const __m512i exp_mask = _mm512_set1_epi32(static_cast<int>(kFloatExpMask));
  const __m512i mant_mask = _mm512_set1_epi32(static_cast<int>(kFloatMantissaMask));
  RawCounts counts;
  for (size_t i = 0; i < n; i += 16) {
    // Masked-off lanes load as +0: neither non-finite nor subnormal.
    const __m512i bits = _mm512_maskz_loadu_epi32(lane_mask16(n - i), data + i);
    const __m512i exp = _mm512_and_si512(bits, exp_mask);
    counts.nonfinite |= _mm512_cmpeq_epi32_mask(exp, exp_mask);
    const __mmask16 sub =
        _mm512_testn_epi32_mask(bits, exp_mask) & _mm512_test_epi32_mask(bits, mant_mask);
    counts.subnormals += static_cast<size_t>(__builtin_popcount(sub));
  }
  res.raw = raw_verdict(counts, n);
  if (res.raw != RawVerdict::kNone || n == 0) return res;

  const __m512d vinv = _mm512_set1_pd(inv_twice_eb);
  const __m512i one = _mm512_set1_epi32(1);
  // VPERMT2D index gathering the low dwords of two int64 vectors: the
  // int32 truncations of 16 quantized values, in order.
  const __m512i low_dwords =
      _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
  __m512i guard = _mm512_setzero_si512();
  __m512i mag_acc = _mm512_setzero_si512();
  // Lane 15 of `carry` is the predecessor of the next group's lane 0.
  __m512i carry = _mm512_set1_epi32(q_prev);
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 m = lane_mask16(n - i);
    const __mmask8 m_lo = static_cast<__mmask8>(m);
    const __mmask8 m_hi = static_cast<__mmask8>(m >> 8);
    const __m512 f = _mm512_maskz_loadu_ps(m, data + i);
    const __m512i q_lo = _mm512_cvtpd_epi64(
        _mm512_mul_pd(_mm512_cvtps_pd(_mm512_castps512_ps256(f)), vinv));
    const __m512i q_hi =
        _mm512_cvtpd_epi64(_mm512_mul_pd(_mm512_cvtps_pd(_mm512_extractf32x8_ps(f, 1)), vinv));
    _mm512_mask_storeu_epi64(q + i, m_lo, q_lo);
    if (m_hi != 0) _mm512_mask_storeu_epi64(q + i + 8, m_hi, q_hi);
    // Masked-off lanes quantize 0.0 to 0, so they leave the guard alone.
    guard = _mm512_or_si512(guard, _mm512_or_si512(_mm512_abs_epi64(q_lo), _mm512_abs_epi64(q_hi)));
    const __m512i t = _mm512_permutex2var_epi32(q_lo, low_dwords, q_hi);
    if (i == 0 && restart) carry = _mm512_broadcastd_epi32(_mm512_castsi512_si128(t));
    const __m512i prev = _mm512_alignr_epi32(t, carry, 15);
    // r = t - prev in int64 has |r| < 2^32: its magnitude is the 32-bit
    // difference taken in the order that is non-negative, its sign one
    // signed compare.
    const __mmask16 neg = _mm512_cmpgt_epi32_mask(prev, t);
    const __m512i mag = _mm512_mask_sub_epi32(_mm512_sub_epi32(t, prev), neg, prev, t);
    mag_acc = _mm512_mask_or_epi32(mag_acc, m, mag_acc, mag);
    _mm512_mask_storeu_epi32(mags + i, m, mag);
    _mm512_mask_storeu_epi32(signs + i, m, _mm512_maskz_mov_epi32(neg, one));
    carry = t;
  }
  res.q_guard = static_cast<uint64_t>(_mm512_reduce_or_epi64(guard));
  res.max_mag = static_cast<uint32_t>(_mm512_reduce_or_epi32(mag_acc));
  return res;
}

/// 16-lane SZx scan; same overlapping-tail + canonicalization scheme as the
/// AVX2 body.  The _mm512_reduce_* sequences are order-insensitive here
/// because the only order-sensitive case (±0 ties) is folded afterwards.
inline HZCCL_HOT void szx_scan_avx512_body(const float* data, size_t n, float* out) {
  if (n < 16) {
    szx_scan_avx2_body(data, n, out);
    return;
  }
  const __m512 sign = _mm512_set1_ps(-0.0f);
  __m512 vmn = _mm512_loadu_ps(data);
  __m512 vmx = vmn;
  __m512 vab = _mm512_andnot_ps(sign, vmn);
  size_t i = 16;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(data + i);
    vmn = _mm512_min_ps(vmn, v);
    vmx = _mm512_max_ps(vmx, v);
    vab = _mm512_max_ps(vab, _mm512_andnot_ps(sign, v));
  }
  if (i < n) {
    const __m512 v = _mm512_loadu_ps(data + n - 16);
    vmn = _mm512_min_ps(vmn, v);
    vmx = _mm512_max_ps(vmx, v);
    vab = _mm512_max_ps(vab, _mm512_andnot_ps(sign, v));
  }
  out[0] = _mm512_reduce_min_ps(vmn) + 0.0f;
  out[1] = _mm512_reduce_max_ps(vmx) + 0.0f;
  out[2] = _mm512_reduce_max_ps(vab) + 0.0f;
}

// ---------------------------------------------------------------------------
// Whole-block codec on 32-value groups.  A group's sign bits are 4 bytes (a
// __mmask32), its byte planes 32 bytes each and its remainder plane exactly
// 4x bytes for x = c % 8.  The body takes c at run time and has no branch on
// it: absent planes are loads and stores under an all-zero mask, and the
// x-dependent permutes come from a table.  The last group of a block that
// is not a multiple of 32 runs the same body under shorter masks, so every
// load and store covers exactly the block's bytes.
// ---------------------------------------------------------------------------

/// Constants of a remainder plane of width x = c % 8 (row 0: none).
struct RemPlaneConsts {
  /// VPERMB index: qword lane g of a group receives remainder bytes
  /// [g*x, g*x + 8), the eight x-bit fields of values 8g..8g+7.
  std::array<uint8_t, 32> gather{};
  /// VPERMB index gathering the low x bytes of each qword lane into 4x
  /// contiguous bytes.
  std::array<uint8_t, 32> compact{};
  /// VPMULTISHIFTQB control: byte k selects the field at bit k*x.
  uint64_t shifts = 0;
  /// Low x bits set.
  uint8_t field = 0;
  /// Packing weights: [1, 2^x] per byte pair (VPMADDUBSW) and [1, 2^2x] per
  /// word pair (VPMADDWD).
  uint16_t pair_weight = 0;
  uint32_t quad_weight = 0;
};

constexpr std::array<RemPlaneConsts, 8> make_rem_plane_consts() {
  std::array<RemPlaneConsts, 8> t{};
  for (int x = 1; x < 8; ++x) {
    for (int b = 0; b < 32; ++b) {
      t[x].gather[b] = static_cast<uint8_t>((b / 8) * x + b % 8);
      t[x].compact[b] = static_cast<uint8_t>(b < 4 * x ? 8 * (b / x) + b % x : 0);
    }
    t[x].shifts = multishift_ctrl(x);
    t[x].field = static_cast<uint8_t>((1 << x) - 1);
    t[x].pair_weight = static_cast<uint16_t>(1 | (1 << (x + 8)));
    t[x].quad_weight = 1u | (1u << (2 * x + 16));
  }
  return t;
}

inline constexpr std::array<RemPlaneConsts, 8> kRemPlane = make_rem_plane_consts();

/// VPERMT2B indices that build 16 magnitudes from the column tables
/// [plane 0 | plane 1] and [plane 2 | remainder] (32 bytes each), for a
/// block with `planes` = c / 8 full byte planes: byte k of value j comes
/// from plane k (index 32k + j) below `planes`, from the remainder column
/// (index 96 + j) at `planes`, and is zeroed (outside `keep`) above it.
struct PlaneAssembly {
  std::array<uint8_t, 64> lo{};  ///< values 0..15 of a group
  std::array<uint8_t, 64> hi{};  ///< values 16..31
  uint64_t keep = 0;
  /// All ones where byte plane k exists (k < planes), else zero: the
  /// decoder's plane load masks and offset selects.
  uint64_t present[3] = {};
};

constexpr std::array<PlaneAssembly, 4> make_plane_assembly() {
  std::array<PlaneAssembly, 4> t{};
  for (int planes = 0; planes < 4; ++planes) {
    for (int b = 0; b < 64; ++b) {
      const int value = b / 4;
      const int k = b % 4;
      const int column = k < planes ? 32 * k : 96;
      t[planes].lo[b] = static_cast<uint8_t>(column + value);
      t[planes].hi[b] = static_cast<uint8_t>(column + value + 16);
      if (k <= planes) t[planes].keep |= uint64_t{1} << b;
    }
    for (int k = 0; k < 3; ++k) t[planes].present[k] = k < planes ? ~uint64_t{0} : 0;
  }
  return t;
}

inline constexpr std::array<PlaneAssembly, 4> kPlaneAssembly = make_plane_assembly();

/// VPERMT2B index transposing a group's 32 magnitudes (two registers of 16
/// dwords, 128 bytes): output bytes 0..31 are byte 0 of values 0..31 and
/// bytes 32..63 byte 1; adding 2 to the whole index gives bytes 2 and 3.
/// Byte k of value j sits at 4j + k.
constexpr std::array<uint8_t, 64> make_transpose_index() {
  std::array<uint8_t, 64> t{};
  for (int b = 0; b < 64; ++b) t[b] = static_cast<uint8_t>(4 * (b % 32) + b / 32);
  return t;
}

inline constexpr std::array<uint8_t, 64> kTransposeIndex = make_transpose_index();

inline __mmask32 low_mask32(size_t bits) { return _bzhi_u32(~0u, static_cast<unsigned>(bits)); }

inline __m256i load_bytes32(const std::array<uint8_t, 32>& a) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data()));
}

inline __m512i load_bytes64(const std::array<uint8_t, 64>& a) {
  return _mm512_loadu_si512(a.data());
}

/// Load/store masks of one 32-value group with t values: the values, the
/// sign bytes and the x-bit remainder bytes; and, for the decoder's byte
/// permutes, the bytes of values 0..15 and 16..31 that lie inside the
/// group, intersected with the plane-presence mask (PlaneAssembly::keep).
struct GroupMasks {
  __mmask32 values;
  __mmask16 sign_bytes;
  __mmask32 rem_bytes;
  __mmask64 keep_lo = 0;
  __mmask64 keep_hi = 0;
};

/// Four mask bytes per value: a 16-lane dword mask as the matching byte mask.
inline __mmask64 dword_bytes(uint32_t lanes16) {
  return _pdep_u64(lanes16, 0x1111111111111111ull) * 0xF;
}

inline GroupMasks group_masks(size_t t, int x, __mmask64 keep = 0) {
  const __mmask32 values = low_mask32(t);
  return {values, static_cast<__mmask16>(low_mask32((t + 7) / 8)),
          low_mask32((t * static_cast<size_t>(x) + 7) / 8), keep & dword_bytes(values & 0xFFFF),
          keep & dword_bytes(values >> 16)};
}

/// group_masks(32, x, keep), with nothing to expand.
inline GroupMasks full_group_masks(int x, __mmask64 keep = 0) {
  return {0xFFFFFFFFu, 0xF, low_mask32(4 * static_cast<size_t>(x)), keep, keep};
}

/// A 32-value group's signed residuals: values 0..15 in `lo`, 16..31 in
/// `hi`, one per dword lane.
struct Group32 {
  __m512i lo;
  __m512i hi;
};

/// The whole-block decoder of one payload at code length c, written once
/// for decode_block and the three chunk walks: the per-block constants,
/// and group(i, masks(i)), the signed residuals of values [i, i + 32) in two
/// registers, every lane past the block zero (the sign and remainder
/// planes' padding bits past value n never reach a lane).  c is taken at
/// run time with no branch on it: absent planes are loads under an all-zero
/// mask, and the x-dependent permutes come from a table.  Every load is
/// masked to the group's bytes, so a whole walk reads exactly the payload.
class GroupDecoder {
 public:
  GroupDecoder(const uint8_t* src, size_t n, int c)
      : src_(src),
        n_(n),
        x_(static_cast<int>(static_cast<unsigned>(c) % 8)),
        base_((n + 7) / 8),
        rem_(src + base_ + static_cast<size_t>(c / 8) * n),
        assembly_(kPlaneAssembly[static_cast<unsigned>(c) / 8]),
        idx_lo_(load_bytes64(assembly_.lo)),
        idx_hi_(load_bytes64(assembly_.hi)),
        gather_(load_bytes32(kRemPlane[x_].gather)),
        shifts_(_mm256_set1_epi64x(static_cast<long long>(kRemPlane[x_].shifts))),
        field_(_mm256_set1_epi8(static_cast<char>(kRemPlane[x_].field))),
        full_(full_group_masks(x_, assembly_.keep)) {}

  /// The masks of the group starting at value i.
  GroupMasks masks(size_t i) const {
    return i + 32 <= n_ ? full_ : group_masks(n_ - i, x_, assembly_.keep);
  }

  Group32 group(size_t i, const GroupMasks& m) const {
    const uint32_t neg =
        static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_maskz_loadu_epi8(m.sign_bytes, src_ + i / 8))) &
        m.values;
    // Plane k present: an all-ones load mask and offset select; absent:
    // both zero, so the load touches nothing and its address stays at src
    // (no pointer past the payload is formed).  Table lookups, not
    // branches: c varies block to block.
    const auto plane = [&](int k) {
      const uint64_t present = assembly_.present[k];
      return _mm256_maskz_loadu_epi8(m.values & static_cast<uint32_t>(present),
                                     src_ + (present & (base_ + static_cast<size_t>(k) * n_ + i)));
    };
    const __m256i b0 = plane(0);
    const __m256i b1 = plane(1);
    const __m256i b2 = plane(2);
    const __m256i raw = _mm256_maskz_loadu_epi8(m.rem_bytes, rem_ + (i / 8) * x_);
    const __m256i hi = _mm256_and_si256(
        _mm256_multishift_epi64_epi8(shifts_, _mm256_permutexvar_epi8(gather_, raw)), field_);
    const __m512i ta = _mm512_inserti64x4(_mm512_castsi256_si512(b0), b1, 1);
    const __m512i tb = _mm512_inserti64x4(_mm512_castsi256_si512(b2), hi, 1);
    const __m512i mag_lo = _mm512_maskz_permutex2var_epi8(m.keep_lo, ta, idx_lo_, tb);
    const __m512i mag_hi = _mm512_maskz_permutex2var_epi8(m.keep_hi, ta, idx_hi_, tb);
    const __m512i zero = _mm512_setzero_si512();
    return {_mm512_mask_sub_epi32(mag_lo, static_cast<__mmask16>(neg), zero, mag_lo),
            _mm512_mask_sub_epi32(mag_hi, static_cast<__mmask16>(neg >> 16), zero, mag_hi)};
  }

 private:
  const uint8_t* src_;
  size_t n_;
  int x_;
  size_t base_;  // byte plane 0, relative to src
  const uint8_t* rem_;
  const PlaneAssembly& assembly_;
  __m512i idx_lo_;
  __m512i idx_hi_;
  __m256i gather_;
  __m256i shifts_;
  __m256i field_;
  GroupMasks full_;
};

inline HZCCL_HOT void decode_block_avx512_body(const uint8_t* src, size_t n, int c,
                                               int32_t* r) {
  const GroupDecoder dec(src, n, c);
  for (size_t i = 0; i < n; i += 32) {
    const GroupMasks m = dec.masks(i);
    const Group32 g = dec.group(i, m);
    _mm512_mask_storeu_epi32(r + i, static_cast<__mmask16>(m.values), g.lo);
    _mm512_mask_storeu_epi32(r + i + 16, static_cast<__mmask16>(m.values >> 16), g.hi);
  }
}

/// The whole-block encoder of one block of n values at code length c,
/// written once for encode_block and pipeline 4: the per-block constants,
/// and group(i, masks(i), mag_lo, mag_hi, neg), which writes the sign bits,
/// byte-plane bytes and remainder bits of values [i, i + 32) from
/// registers: magnitudes one per dword lane (values 0..15 in mag_lo, 16..31
/// in mag_hi, every lane past the block zero), bit j of neg set for a
/// negative value j.  Every store is masked to the group's bytes.
class GroupEncoder {
 public:
  GroupEncoder(uint8_t* out, size_t n, int c)
      : out_(out),
        n_(n),
        planes_(static_cast<int>(static_cast<unsigned>(c) / 8)),
        x_(static_cast<int>(static_cast<unsigned>(c) % 8)),
        base_((n + 7) / 8),
        rem_(out + base_ + static_cast<size_t>(planes_) * n),
        // Absent planes store nothing, at out (see GroupDecoder::group).
        present_(kPlaneAssembly[static_cast<size_t>(planes_)].present),
        // Byte columns of a group: [byte 0 | byte 1] and [byte 2 | byte 3]
        // for the planes, and byte `planes` of each magnitude (the bits
        // above the full planes) for the remainder, each one VPERMT2B.
        idx_01_(load_bytes64(kTransposeIndex)),
        idx_23_(_mm512_add_epi8(idx_01_, _mm512_set1_epi8(2))),
        rem_index_(_mm256_add_epi8(_mm512_castsi512_si256(idx_01_),
                                   _mm256_set1_epi8(static_cast<char>(planes_)))),
        field_(_mm256_set1_epi8(static_cast<char>(kRemPlane[x_].field))),
        // Remainder packing: pairs of x-bit fields -> 2x bits (VPMADDUBSW),
        // pairs of those -> 4x bits (VPMADDWD), pairs of dwords -> 8x bits
        // per qword; then the low x bytes of each qword are gathered into
        // 4x bytes.
        w1_(_mm256_set1_epi16(static_cast<short>(kRemPlane[x_].pair_weight))),
        w2_(_mm256_set1_epi32(static_cast<int>(kRemPlane[x_].quad_weight))),
        shift4x_(_mm_cvtsi32_si128(4 * x_)),
        compact_(load_bytes32(kRemPlane[x_].compact)),
        full_(full_group_masks(x_)) {}

  /// The masks of the group starting at value i.
  GroupMasks masks(size_t i) const { return i + 32 <= n_ ? full_ : group_masks(n_ - i, x_); }

  void group(size_t i, const GroupMasks& m, __m512i mag_lo, __m512i mag_hi, uint32_t neg) const {
    _mm_mask_storeu_epi8(out_ + i / 8, m.sign_bytes, _mm_cvtsi32_si128(static_cast<int>(neg)));
    const __m512i c01 = _mm512_permutex2var_epi8(mag_lo, idx_01_, mag_hi);
    const __m512i c23 = _mm512_permutex2var_epi8(mag_lo, idx_23_, mag_hi);
    const auto store_plane = [&](int k, __m256i bytes) {
      _mm256_mask_storeu_epi8(out_ + (present_[k] & (base_ + static_cast<size_t>(k) * n_ + i)),
                              m.values & static_cast<uint32_t>(present_[k]), bytes);
    };
    store_plane(0, _mm512_castsi512_si256(c01));
    store_plane(1, _mm512_extracti64x4_epi64(c01, 1));
    store_plane(2, _mm512_castsi512_si256(c23));
    const __m256i top = _mm512_castsi512_si256(
        _mm512_permutex2var_epi8(mag_lo, _mm512_castsi256_si512(rem_index_), mag_hi));
    const __m256i v = _mm256_and_si256(top, field_);
    const __m256i v32 = _mm256_madd_epi16(_mm256_maddubs_epi16(w1_, v), w2_);
    const __m256i v64 = _mm256_or_si256(_mm256_and_si256(v32, _mm256_set1_epi64x(0xFFFFFFFFll)),
                                        _mm256_sll_epi64(_mm256_srli_epi64(v32, 32), shift4x_));
    _mm256_mask_storeu_epi8(rem_ + (i / 8) * static_cast<size_t>(x_), m.rem_bytes,
                            _mm256_permutexvar_epi8(compact_, v64));
  }

 private:
  uint8_t* out_;
  size_t n_;
  int planes_;
  int x_;
  size_t base_;  // byte plane 0, relative to out
  uint8_t* rem_;
  const uint64_t* present_;
  __m512i idx_01_;
  __m512i idx_23_;
  __m256i rem_index_;
  __m256i field_;
  __m256i w1_;
  __m256i w2_;
  __m128i shift4x_;
  __m256i compact_;
  GroupMasks full_;
};

inline HZCCL_HOT void encode_block_avx512_body(const uint32_t* mags, const uint32_t* signs,
                                               size_t n, int c, uint8_t* out) {
  const GroupEncoder enc(out, n, c);
  const __m512i one = _mm512_set1_epi32(1);
  for (size_t i = 0; i < n; i += 32) {
    const GroupMasks m = enc.masks(i);
    const auto lo16 = static_cast<__mmask16>(m.values);
    const auto hi16 = static_cast<__mmask16>(m.values >> 16);
    const uint32_t neg =
        static_cast<uint32_t>(
            _mm512_test_epi32_mask(_mm512_maskz_loadu_epi32(lo16, signs + i), one)) |
        (static_cast<uint32_t>(
             _mm512_test_epi32_mask(_mm512_maskz_loadu_epi32(hi16, signs + i + 16), one))
         << 16);
    enc.group(i, m, _mm512_maskz_loadu_epi32(lo16, mags + i),
              _mm512_maskz_loadu_epi32(hi16, mags + i + 16), neg);
  }
}

// The chunk slots at AVX-512: walk_chain and combine_walk with block
// visitors that decode each group through GroupDecoder and consume it in
// registers, their state (the chain carry, the fold's sums and weights)
// held in registers across the chunk's blocks.

/// f(n) for a block of n values, inlined twice: once with n the constant
/// 32 (fZ-light's default block length, one group per block), where the
/// block's geometry — plane offsets, masks, the group loop — folds away,
/// and once for any other length.
template <class F>
__attribute__((always_inline)) inline void with_block_len(size_t n, F&& f) {
  if (n == 32) {
    f(size_t{32});
  } else {
    f(n);
  }
}

/// Decompress: each quarter of a group (8 residuals, sign-extended to
/// int64) becomes its block-local inclusive prefix sum in three VALIGNQ +
/// VPADDQ steps, plus the chain value before it, broadcast from the
/// previous quarter's last lane; then VCVTQQ2PD, VMULPD and VCVTPD2PS, both
/// conversions rounding under MXCSR as the scalar casts do, and one store
/// of 8 floats masked to the block.  The chain carry stays in a register
/// from block to block; a constant block fills with its lane 0.
inline HZCCL_HOT ChunkStatus decompress_chunk_avx512_body(const uint8_t* payload, size_t size,
                                                          size_t count, uint32_t block_len,
                                                          int64_t q, double twice_eb,
                                                          float* out) {
  struct Visitor {
    __m512i carry;
    __m512d scale;
    double twice_eb;
    float* out;
    void raw(const uint8_t* floats, size_t pos, size_t n) {
      std::memcpy(out + pos, floats, n * sizeof(float));
    }
    void constant(size_t pos, size_t n) {
      const int64_t qc = _mm_cvtsi128_si64(_mm512_castsi512_si128(carry));
      fill_floats(out + pos, n, dequantize_value(qc, twice_eb));
    }
    void residual(const uint8_t* p, int c, size_t pos, size_t len) {
      with_block_len(len, [&](size_t n) __attribute__((always_inline)) { block(p, c, pos, n); });
    }
    __attribute__((always_inline)) void block(const uint8_t* p, int c, size_t pos, size_t n) {
      const GroupDecoder dec(p, n, c);
      const __m512i zero = _mm512_setzero_si512();
      const __m512i last = _mm512_set1_epi64(7);
      const auto quarter = [&](__m256i r, float* dst, uint32_t lanes) {
        __m512i v = _mm512_cvtepi32_epi64(r);
        v = _mm512_add_epi64(v, _mm512_alignr_epi64(v, zero, 7));
        v = _mm512_add_epi64(v, _mm512_alignr_epi64(v, zero, 6));
        v = _mm512_add_epi64(v, _mm512_alignr_epi64(v, zero, 4));
        v = _mm512_add_epi64(v, carry);
        carry = _mm512_permutexvar_epi64(last, v);
        _mm256_mask_storeu_ps(dst, static_cast<__mmask8>(lanes),
                              _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_cvtepi64_pd(v), scale)));
      };
      float* const dst = out + pos;
      for (size_t i = 0; i < n; i += 32) {
        const GroupMasks m = dec.masks(i);
        const Group32 g = dec.group(i, m);
        quarter(_mm512_castsi512_si256(g.lo), dst + i, m.values);
        quarter(_mm512_extracti64x4_epi64(g.lo, 1), dst + i + 8, m.values >> 8);
        quarter(_mm512_castsi512_si256(g.hi), dst + i + 16, m.values >> 16);
        quarter(_mm512_extracti64x4_epi64(g.hi, 1), dst + i + 24, m.values >> 24);
      }
    }
  } v{_mm512_set1_epi64(q), _mm512_set1_pd(twice_eb), twice_eb, out};
  return walk_chain(payload, size, count, block_len, v);
}

/// The first group's block-local weights j and j(j+1)/2 of fold_chunk's
/// sums, in the order VPMULDQ reads them: row k holds the even (k = 0, 2)
/// or odd (k = 1, 3) dwords of the lo (k < 2) or hi register, one per qword
/// lane.
struct FoldWeights {
  int64_t j[4][8];
  int64_t tri[4][8];
};

constexpr FoldWeights make_fold_weights() {
  FoldWeights w{};
  for (int k = 0; k < 4; ++k) {
    for (int lane = 0; lane < 8; ++lane) {
      const int64_t j = 16 * (k / 2) + 2 * lane + k % 2;
      w.j[k][lane] = j;
      w.tri[k][lane] = j * (j + 1) / 2;
    }
  }
  return w;
}

inline constexpr FoldWeights kFoldWeights = make_fold_weights();

/// x(x + 1)/2 mod 2^64, halving the even factor first.
inline uint64_t tri_u64(uint64_t x) { return x % 2 == 0 ? (x / 2) * (x + 1) : x * ((x + 1) / 2); }

/// The digest fold of a whole chunk with one reduction.  With g the
/// chunk-local 0-based index of residual r_g, N values, K blocks of
/// length L and chain start q0, summing the chain over every position
/// gives
///   sum  = N*q0 + N*S0 - S1,        S1 = sum g*r_g
///   wsum = tri(N)*q0 + tri(N)*S0 - S2,   S2 = sum tri(g)*r_g
/// (tri(x) = x(x+1)/2, S0 = sum r_g), and a raw block at [b, b + n) takes
/// back n*q_B and (n*b + tri(n))*q_B, q_B being the chain there.  Block k
/// starts at b = k*L, and g = b + j splits each weight into block-local
/// parts: g = b + j and tri(g) = tri(b) + b*j + tri(j).  The lane sums of
/// r, j*r and tri(j)*r (a0, a1, a2, VPMULDQ on the even and odd residuals
/// of a group against weights that stay in registers) run over the whole
/// chunk, and the block offsets come from running sums added once per
/// block: v += a0, w += a1, y += v.  Then
///   sum_k b*S0_k      = L*(K*S0 - V)
///   sum_k b*S1loc_k   = L*(K*A1 - W)
///   sum_k tri(b)*S0_k = tri(L*K)*S0 - L*(L*(2K+1) + 1)/2 * V + L*L*Y,
/// V, W and Y being the reductions of v, w and y: every term is exact mod
/// 2^64, so the words equal the per-value loop's.
inline HZCCL_HOT ChunkStatus fold_chunk_avx512_body(const uint8_t* payload, size_t size,
                                                    size_t count, uint32_t block_len, int64_t q,
                                                    uint64_t* sum, uint64_t* wsum) {
  struct Visitor {
    __m512i j0[4];
    __m512i t0[4];
    __m512i a0 = _mm512_setzero_si512();
    __m512i a1 = _mm512_setzero_si512();
    __m512i a2 = _mm512_setzero_si512();
    __m512i v = _mm512_setzero_si512();
    __m512i w = _mm512_setzero_si512();
    __m512i y = _mm512_setzero_si512();
    uint64_t q0 = 0;
    uint64_t raw_sum = 0;
    uint64_t raw_wsum = 0;
    void next_block() {
      v = _mm512_add_epi64(v, a0);
      w = _mm512_add_epi64(w, a1);
      y = _mm512_add_epi64(y, v);
    }
    void raw(const uint8_t*, size_t pos, size_t n) {
      const uint64_t qb = q0 + static_cast<uint64_t>(_mm512_reduce_add_epi64(a0));
      raw_sum += n * qb;
      raw_wsum += qb * (n * pos + tri_u64(n));
      next_block();
    }
    void constant(size_t, size_t) { next_block(); }
    void residual(const uint8_t* p, int c, size_t, size_t len) {
      with_block_len(len, [&](size_t n) __attribute__((always_inline)) { block(p, c, n); });
      next_block();
    }
    __attribute__((always_inline)) void block(const uint8_t* p, int c, size_t n) {
      const GroupDecoder dec(p, n, c);
      __m512i j[4] = {j0[0], j0[1], j0[2], j0[3]};
      __m512i t[4] = {t0[0], t0[1], t0[2], t0[3]};
      const auto parity = [&](__m512i r, int k) {
        a0 = _mm512_add_epi64(a0, r);
        a1 = _mm512_add_epi64(a1, _mm512_mul_epi32(r, j[k]));
        a2 = _mm512_add_epi64(a2, _mm512_mul_epi32(r, t[k]));
      };
      for (size_t i = 0;;) {
        const Group32 g = dec.group(i, dec.masks(i));
        parity(_mm512_srai_epi64(_mm512_slli_epi64(g.lo, 32), 32), 0);
        parity(_mm512_srai_epi64(g.lo, 32), 1);
        parity(_mm512_srai_epi64(_mm512_slli_epi64(g.hi, 32), 32), 2);
        parity(_mm512_srai_epi64(g.hi, 32), 3);
        i += 32;
        if (i >= n) break;
        // Next group: tri(j + 32) = tri(j) + 32j + 528.
        for (int k = 0; k < 4; ++k) {
          t[k] = _mm512_add_epi64(_mm512_add_epi64(t[k], _mm512_slli_epi64(j[k], 5)),
                                  _mm512_set1_epi64(528));
          j[k] = _mm512_add_epi64(j[k], _mm512_set1_epi64(32));
        }
      }
    }
  } vis;
  for (int k = 0; k < 4; ++k) {
    vis.j0[k] = _mm512_loadu_si512(kFoldWeights.j[k]);
    vis.t0[k] = _mm512_loadu_si512(kFoldWeights.tri[k]);
  }
  vis.q0 = static_cast<uint64_t>(q);
  const ChunkStatus st = walk_chain(payload, size, count, block_len, vis);
  const auto reduce = [](__m512i x) { return static_cast<uint64_t>(_mm512_reduce_add_epi64(x)); };
  const uint64_t s0 = reduce(vis.a0);
  const uint64_t a1 = reduce(vis.a1);
  const uint64_t a2 = reduce(vis.a2);
  const uint64_t sv = reduce(vis.v);
  const uint64_t sw = reduce(vis.w);
  const uint64_t sy = reduce(vis.y);
  const uint64_t n = count;
  const uint64_t len = block_len;
  const uint64_t blocks = (n + len - 1) / len;
  const uint64_t m = len * (2 * blocks + 1) + 1;  // even when len is odd
  const uint64_t c1 = len % 2 == 0 ? (len / 2) * m : len * (m / 2);
  const uint64_t s1 = len * (blocks * s0 - sv) + a1;
  const uint64_t s2 = tri_u64(len * blocks) * s0 - c1 * sv + len * len * sy +
                      len * (blocks * a1 - sw) + a2;
  const uint64_t tn = tri_u64(n);
  *sum = n * vis.q0 + n * s0 - s1 - vis.raw_sum;
  *wsum = tn * vis.q0 + tn * s0 - s2 - vis.raw_wsum;
  return st;
}

/// Pipeline 4 at AVX-512: one group of each operand decoded into registers
/// and merged in int32 (exact whenever no lane overflows; a lane does when
/// a +- b leaves int32, which the operands' and the sum's signs show, or
/// lands on -2^31, whose |s| VPABSD leaves at 2^31), then encoded from
/// registers once the block's OR of |s| gives its code length.  A block of
/// one group never leaves registers; a longer one parks its merged groups
/// in a stack block until the last group is merged.
template <int Sign>
__attribute__((always_inline)) inline ChunkStatus merge_encode_block(
    const uint8_t* pa, int ca, const uint8_t* pb, int cb, size_t n, uint8_t* dst, size_t avail,
    size_t* written) {
  const GroupDecoder da(pa, n, ca);
  const GroupDecoder db(pb, n, cb);
  // The OR of all |s|, every bit set in a lane that overflowed.
  __m512i guard = _mm512_setzero_si512();
  const auto merge = [&](__m512i x, __m512i y, __m512i* mag) {
    const __m512i s = Sign > 0 ? _mm512_add_epi32(x, y) : _mm512_sub_epi32(x, y);
    // Signed overflow: the operands share a sign the sum lacks (a + b), or
    // differ in sign and the difference's sign differs from a's (a - b).
    const __m512i o = Sign > 0 ? _mm512_and_si512(_mm512_xor_si512(x, s), _mm512_xor_si512(y, s))
                               : _mm512_and_si512(_mm512_xor_si512(x, y), _mm512_xor_si512(x, s));
    *mag = _mm512_abs_epi32(s);
    guard = _mm512_ternarylogic_epi32(guard, *mag, _mm512_srai_epi32(o, 31), 0xFE);
    return static_cast<uint32_t>(_mm512_movepi32_mask(s));
  };
  uint32_t mags[kMaxBlockValues];
  uint32_t negs[kMaxBlockValues / 32];
  __m512i lo;
  __m512i hi;
  uint32_t neg = 0;
  for (size_t i = 0; i < n; i += 32) {
    const Group32 a = da.group(i, da.masks(i));
    const Group32 b = db.group(i, db.masks(i));
    neg = merge(a.lo, b.lo, &lo) | (merge(a.hi, b.hi, &hi) << 16);
    if (n > 32) {
      _mm512_storeu_si512(mags + i, lo);
      _mm512_storeu_si512(mags + i + 16, hi);
      negs[i / 32] = neg;
    }
  }
  const auto g = static_cast<uint32_t>(_mm512_reduce_or_epi32(guard));
  if ((g >> 31) != 0) return ChunkStatus::kOverflow;
  const int c = guard_code_length(g);
  *written = block_bytes(c, n);
  if (*written > avail) return ChunkStatus::kEncodeCapacity;
  dst[0] = static_cast<uint8_t>(c);
  if (c == 0) return ChunkStatus::kOk;
  const GroupEncoder enc(dst + 1, n, c);
  if (n <= 32) {
    enc.group(0, enc.masks(0), lo, hi, neg);
    return ChunkStatus::kOk;
  }
  for (size_t i = 0; i < n; i += 32) {
    enc.group(i, enc.masks(i), _mm512_loadu_si512(mags + i), _mm512_loadu_si512(mags + i + 16),
              negs[i / 32]);
  }
  return ChunkStatus::kOk;
}

template <int Sign>
inline ChunkStatus merge_encode_avx512(const uint8_t* pa, int ca, const uint8_t* pb, int cb,
                                       size_t len, uint8_t* dst, size_t avail, size_t* written) {
  ChunkStatus st = ChunkStatus::kOk;
  with_block_len(len, [&](size_t n) __attribute__((always_inline)) {
    st = merge_encode_block<Sign>(pa, ca, pb, cb, n, dst, avail, written);
  });
  return st;
}

inline HZCCL_HOT CombineChunkResult combine_chunk_avx512_body(const uint8_t* a, size_t size_a,
                                                              const uint8_t* b, size_t size_b,
                                                              size_t count, uint32_t block_len,
                                                              int sign_b, uint8_t* out,
                                                              size_t capacity) {
  return sign_b >= 0 ? combine_walk<+1>(a, size_a, b, size_b, count, block_len, out, capacity,
                                        merge_encode_avx512<+1>)
                     : combine_walk<-1>(a, size_a, b, size_b, count, block_len, out, capacity,
                                        merge_encode_avx512<-1>);
}

/// The compress walk at AVX-512: one masked walk over the chunk.  Each
/// 32-value group is loaded once, under the block's masks, for both the raw
/// verdict and the quantize: exponent tests count its non-finite and
/// subnormal lanes, VCVTPD2QQ quantizes its four quarters (the exact
/// llrint, as in quantize_predict_avx512_body), and the prediction runs on
/// its 32 int32 truncations with the predecessor lane from VALIGND, the
/// chain carry held in a register from block to block.  Once the block's
/// last group is in, its verdict decides: a raw block is copied verbatim
/// and leaves the carry and the digest alone, an out-of-domain one ends the
/// walk, and any other is encoded from registers through GroupEncoder (a
/// block of one group never leaves them; a longer one parks its magnitudes
/// in a stack block, as merge_encode_block does).  The digest sums q and
/// j*q in lanes (j block-local, VPMULDQ against weights that stay in
/// registers) and, once per block, the running sum v of those prefix sums;
/// all three reduce once per chunk.  Block k of length L starts at k*L, so
/// with K blocks and A0, A1, V the three reductions
///   sum = A0,   wsum = A0 + L*(K*A0 - V) + A1,
/// because V = sum_k (A0 up to block k) turns sum_k k*Q_k (Q_k block k's
/// sum of q) into K*A0 - V.  Every term is exact mod 2^64.
template <bool Digest>
inline CompressChunkResult compress_walk_avx512(const float* data, size_t count,
                                                uint32_t block_len, double inv_twice_eb,
                                                int32_t q0, uint8_t* out, size_t capacity) {
  struct Walk {
    const float* data;
    uint8_t* out;
    size_t capacity;
    __m512d vinv;
    __m512i carry;  // lane 15: the chain value before the next block
    __m512i a0 = _mm512_setzero_si512();
    __m512i a1 = _mm512_setzero_si512();
    __m512i v = _mm512_setzero_si512();
    CompressChunkResult res{};

    __attribute__((always_inline)) ChunkStatus block(size_t pos, size_t n) {
      const float* const src = data + pos;
      const __m512i zero = _mm512_setzero_si512();
      const __m512i exp_mask = _mm512_set1_epi32(static_cast<int>(kFloatExpMask));
      const __m512i mant_mask = _mm512_set1_epi32(static_cast<int>(kFloatMantissaMask));
      // VPERMT2D index gathering the low dwords of two int64 vectors.
      const __m512i low_dwords =
          _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
      // Block-local weights j of the group's four quarters.
      __m512i w[4];
      for (int k = 0; k < 4; ++k) {
        w[k] = _mm512_add_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                _mm512_set1_epi64(8 * k));
      }
      uint32_t mags[kMaxBlockValues];
      uint32_t negs[kMaxBlockValues / 32];
      __m512i guard = zero;  // OR of |q|, int64 lanes
      __m512i mag_or = zero;
      __m512i b0 = zero;  // the block's digest lane sums
      __m512i b1 = zero;
      __m512i c = carry;
      __m512i t_lo = zero;
      __m512i t_hi = zero;
      __m512i mag_lo = zero;
      __m512i mag_hi = zero;
      uint32_t neg = 0;
      uint32_t nonfinite = 0;
      size_t subnormals = 0;
      for (size_t i = 0; i < n; i += 32) {
        const __mmask32 vm = i + 32 <= n ? ~__mmask32{0} : low_mask32(n - i);
        const auto m_lo = static_cast<__mmask16>(vm);
        const auto m_hi = static_cast<__mmask16>(vm >> 16);
        // Masked-off lanes load as +0: neither non-finite nor subnormal, and
        // they quantize to 0.  A group of at most 16 values forms no address
        // past the block.
        const __m512 f_lo = _mm512_maskz_loadu_ps(m_lo, src + i);
        const __m512 f_hi = _mm512_maskz_loadu_ps(m_hi, src + i + (m_hi != 0 ? 16 : 0));
        const __m512i bits_lo = _mm512_castps_si512(f_lo);
        const __m512i bits_hi = _mm512_castps_si512(f_hi);
        nonfinite |= static_cast<uint32_t>(
            _mm512_cmpeq_epi32_mask(_mm512_and_si512(bits_lo, exp_mask), exp_mask) |
            _mm512_cmpeq_epi32_mask(_mm512_and_si512(bits_hi, exp_mask), exp_mask));
        const uint32_t sub =
            static_cast<uint32_t>(_mm512_testn_epi32_mask(bits_lo, exp_mask) &
                                  _mm512_test_epi32_mask(bits_lo, mant_mask)) |
            (static_cast<uint32_t>(_mm512_testn_epi32_mask(bits_hi, exp_mask) &
                                   _mm512_test_epi32_mask(bits_hi, mant_mask))
             << 16);
        subnormals += static_cast<size_t>(__builtin_popcount(sub));
        const auto quantize = [&](__m256 f) {
          return _mm512_cvtpd_epi64(_mm512_mul_pd(_mm512_cvtps_pd(f), vinv));
        };
        const __m512i q_0 = quantize(_mm512_castps512_ps256(f_lo));
        const __m512i q_1 = quantize(_mm512_extractf32x8_ps(f_lo, 1));
        const __m512i q_2 = quantize(_mm512_castps512_ps256(f_hi));
        const __m512i q_3 = quantize(_mm512_extractf32x8_ps(f_hi, 1));
        guard = _mm512_ternarylogic_epi64(guard, _mm512_abs_epi64(q_0), _mm512_abs_epi64(q_1),
                                          0xFE);
        guard = _mm512_ternarylogic_epi64(guard, _mm512_abs_epi64(q_2), _mm512_abs_epi64(q_3),
                                          0xFE);
        // r = t - prev in int64 has |r| < 2^32: its magnitude is the 32-bit
        // difference taken in the order that is non-negative, its sign one
        // signed compare; lanes past the block stay zero.
        t_lo = _mm512_permutex2var_epi32(q_0, low_dwords, q_1);
        t_hi = _mm512_permutex2var_epi32(q_2, low_dwords, q_3);
        const __m512i p_lo = _mm512_alignr_epi32(t_lo, c, 15);
        const __m512i p_hi = _mm512_alignr_epi32(t_hi, t_lo, 15);
        const __mmask16 n_lo = _mm512_mask_cmpgt_epi32_mask(m_lo, p_lo, t_lo);
        const __mmask16 n_hi = _mm512_mask_cmpgt_epi32_mask(m_hi, p_hi, t_hi);
        mag_lo = _mm512_mask_sub_epi32(_mm512_maskz_sub_epi32(m_lo, t_lo, p_lo), n_lo, p_lo, t_lo);
        mag_hi = _mm512_mask_sub_epi32(_mm512_maskz_sub_epi32(m_hi, t_hi, p_hi), n_hi, p_hi, t_hi);
        mag_or = _mm512_ternarylogic_epi32(mag_or, mag_lo, mag_hi, 0xFE);
        neg = static_cast<uint32_t>(n_lo) | (static_cast<uint32_t>(n_hi) << 16);
        c = t_hi;
        if (n > 32) {
          _mm512_storeu_si512(mags + i, mag_lo);
          _mm512_storeu_si512(mags + i + 16, mag_hi);
          negs[i / 32] = neg;
        }
        if constexpr (Digest) {
          // |q| <= kMaxQuantValue in every block the digest keeps, so
          // VPMULDQ's low 32 bits of q are q itself.
          b0 = _mm512_add_epi64(b0, _mm512_add_epi64(_mm512_add_epi64(q_0, q_1),
                                                     _mm512_add_epi64(q_2, q_3)));
          b1 = _mm512_add_epi64(
              b1, _mm512_add_epi64(
                      _mm512_add_epi64(_mm512_mul_epi32(q_0, w[0]), _mm512_mul_epi32(q_1, w[1])),
                      _mm512_add_epi64(_mm512_mul_epi32(q_2, w[2]), _mm512_mul_epi32(q_3, w[3]))));
          for (int k = 0; k < 4; ++k) w[k] = _mm512_add_epi64(w[k], _mm512_set1_epi64(32));
        }
      }
      const size_t avail = capacity - res.bytes;
      uint8_t* const dst = out + res.bytes;
      if (nonfinite != 0 || 2 * subnormals > n) {
        ++(nonfinite != 0 ? res.nonfinite_blocks : res.denormal_blocks);
        if (1 + 4 * n > avail) return ChunkStatus::kRawCapacity;
        dst[0] = static_cast<uint8_t>(kRawCode);
        std::memcpy(dst + 1, src, n * sizeof(float));
        res.bytes += 1 + 4 * n;
        res.emitted_raw = true;
        if constexpr (Digest) v = _mm512_add_epi64(v, a0);
        return ChunkStatus::kOk;
      }
      if (_mm512_test_epi64_mask(guard, _mm512_set1_epi64(~int64_t{kMaxQuantValue})) != 0) {
        return ChunkStatus::kQuantRange;
      }
      if (n % 32 == 0) {
        carry = t_hi;
      } else {
        const size_t last = (n - 1) % 32;
        carry = _mm512_permutexvar_epi32(_mm512_set1_epi32(static_cast<int>(last % 16)),
                                         last < 16 ? t_lo : t_hi);
      }
      if constexpr (Digest) {
        a0 = _mm512_add_epi64(a0, b0);
        a1 = _mm512_add_epi64(a1, b1);
        v = _mm512_add_epi64(v, a0);
      }
      const int code = guard_code_length(static_cast<uint32_t>(_mm512_reduce_or_epi32(mag_or)));
      const size_t size = block_bytes(code, n);
      if (size > avail) {
        return code == 0 ? ChunkStatus::kConstantCapacity : ChunkStatus::kEncodeCapacity;
      }
      dst[0] = static_cast<uint8_t>(code);
      res.bytes += size;
      if (code == 0) return ChunkStatus::kOk;
      const GroupEncoder enc(dst + 1, n, code);
      if (n <= 32) {
        enc.group(0, enc.masks(0), mag_lo, mag_hi, neg);
        return ChunkStatus::kOk;
      }
      for (size_t i = 0; i < n; i += 32) {
        enc.group(i, enc.masks(i), _mm512_loadu_si512(mags + i),
                  _mm512_loadu_si512(mags + i + 16), negs[i / 32]);
      }
      return ChunkStatus::kOk;
    }
  } walk{data, out, capacity, _mm512_set1_pd(inv_twice_eb), _mm512_set1_epi32(q0)};
  for (size_t pos = 0; pos < count;) {
    const size_t len = min_size(block_len, count - pos);
    ChunkStatus st = ChunkStatus::kOk;
    with_block_len(len, [&](size_t n) __attribute__((always_inline)) { st = walk.block(pos, n); });
    if (st != ChunkStatus::kOk) {
      walk.res.status = st;
      return walk.res;
    }
    pos += len;
  }
  if constexpr (Digest) {
    const auto reduce = [](__m512i x) {
      return static_cast<uint64_t>(_mm512_reduce_add_epi64(x));
    };
    const uint64_t s0 = reduce(walk.a0);
    const uint64_t len = block_len;
    const uint64_t blocks = (count + len - 1) / len;
    walk.res.sum = s0;
    walk.res.wsum = s0 + len * (blocks * s0 - reduce(walk.v)) + reduce(walk.a1);
  }
  return walk.res;
}

inline HZCCL_HOT CompressChunkResult compress_chunk_avx512_body(const float* data, size_t count,
                                                               uint32_t block_len,
                                                               double inv_twice_eb, int32_t q0,
                                                               bool digest, uint8_t* out,
                                                               size_t capacity) {
  return digest ? compress_walk_avx512<true>(data, count, block_len, inv_twice_eb, q0, out,
                                             capacity)
                : compress_walk_avx512<false>(data, count, block_len, inv_twice_eb, q0, out,
                                              capacity);
}

// ---------------------------------------------------------------------------
// Carry-less CRC-32C (VPCLMULQDQ).  The kernel folds the message into a
// 128-bit remainder congruent to it modulo P, then lets the crc32
// instruction reduce those 16 bytes.  A 128-bit lane X holds its earlier
// qword L in the low half, so in the reflected order X = L*x^64 + H, and
// advancing it past D further message bits is
//   X * x^D = L*x^(D+64) + H*x^D = clmul(L, k(D+32)) ^ clmul(H, k(D-32)),
// where k(e) is x^e mod P, reflected and shifted left once.  Read in the
// 128-bit reflected order, the carry-less product of a reflected qword and
// a reflected 32-bit constant is their product times x^33; the shift makes
// that x^32, which the 32 taken off each exponent cancels.  The CRC state
// enters as an xor into the first four message bytes, so the fold starts
// from a zero register; at the end the CRC is the crc32 instruction's
// register after the remainder's 16 bytes from zero.
// ---------------------------------------------------------------------------

/// x^e modulo the CRC-32C polynomial, reflected.
constexpr uint32_t crc32c_xpow(size_t e) {
  uint32_t p = uint32_t{1} << 31;  // x^0
  for (size_t i = 0; i < e; ++i) p = crc32c_multmodp(uint32_t{1} << 30, p);  // * x
  return p;
}

/// The multipliers that advance a 128-bit lane past `bits` message bits:
/// `lo` for its low (earlier) qword, `hi` for its high one.  For 2048 bits,
/// the 256-byte loop's distance, they are 0xdcb17aa4 and 0xb9e02b86.
struct Crc32cFold {
  uint64_t lo;
  uint64_t hi;
};

consteval Crc32cFold crc32c_fold(size_t bits) {
  return {uint64_t{crc32c_xpow(bits + 32)} << 1, uint64_t{crc32c_xpow(bits - 32)} << 1};
}

inline __m128i crc32c_fold_lane(Crc32cFold k) {
  return _mm_set_epi64x(static_cast<long long>(k.hi), static_cast<long long>(k.lo));
}

/// x advanced past the fold distance of k, xored with `next`.
inline __m512i crc32c_fold512(__m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next, 0x96);
}

inline __m128i crc32c_fold128(__m128i x, __m128i k, __m128i next) {
  return _mm_ternarylogic_epi64(_mm_clmulepi64_si128(x, k, 0x00),
                                _mm_clmulepi64_si128(x, k, 0x11), next, 0x96);
}

/// Four 512-bit accumulators fold 256 bytes per step and join into one;
/// it folds 64 bytes per step and its four lanes join into the 128-bit
/// remainder, which folds 16 bytes per step.  Shorter messages enter at
/// the first stage they fill.  Loads read exactly n bytes.
inline HZCCL_HOT uint32_t crc32c_vpclmul_body(const uint8_t* data, size_t n, uint32_t crc) {
  uint64_t c = static_cast<uint32_t>(~crc);
  if (n >= 16) {
    const __m128i state = _mm_cvtsi32_si128(static_cast<int>(c));
    __m128i y;
    if (n >= 64) {
      const __m512i k512 = _mm512_broadcast_i32x4(crc32c_fold_lane(crc32c_fold(512)));
      __m512i x;
      if (n >= 256) {
        const __m512i k2048 = _mm512_broadcast_i32x4(crc32c_fold_lane(crc32c_fold(2048)));
        __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(data), _mm512_zextsi128_si512(state));
        __m512i x1 = _mm512_loadu_si512(data + 64);
        __m512i x2 = _mm512_loadu_si512(data + 128);
        __m512i x3 = _mm512_loadu_si512(data + 192);
        for (data += 256, n -= 256; n >= 256; data += 256, n -= 256) {
          x0 = crc32c_fold512(x0, k2048, _mm512_loadu_si512(data));
          x1 = crc32c_fold512(x1, k2048, _mm512_loadu_si512(data + 64));
          x2 = crc32c_fold512(x2, k2048, _mm512_loadu_si512(data + 128));
          x3 = crc32c_fold512(x3, k2048, _mm512_loadu_si512(data + 192));
        }
        const __m512i k1536 = _mm512_broadcast_i32x4(crc32c_fold_lane(crc32c_fold(1536)));
        const __m512i k1024 = _mm512_broadcast_i32x4(crc32c_fold_lane(crc32c_fold(1024)));
        x = crc32c_fold512(x0, k1536, crc32c_fold512(x1, k1024, crc32c_fold512(x2, k512, x3)));
      } else {
        x = _mm512_xor_si512(_mm512_loadu_si512(data), _mm512_zextsi128_si512(state));
        data += 64;
        n -= 64;
      }
      for (; n >= 64; data += 64, n -= 64) x = crc32c_fold512(x, k512, _mm512_loadu_si512(data));
      // Lanes 0..2 advance to lane 3's end (384, 256 and 128 bits); lane 3's
      // multipliers are zero, so its product drops out of the xor below.
      __m512i k = _mm512_zextsi128_si512(crc32c_fold_lane(crc32c_fold(384)));
      k = _mm512_inserti32x4(k, crc32c_fold_lane(crc32c_fold(256)), 1);
      k = _mm512_inserti32x4(k, crc32c_fold_lane(crc32c_fold(128)), 2);
      const __m512i t = _mm512_xor_si512(_mm512_clmulepi64_epi128(x, k, 0x00),
                                         _mm512_clmulepi64_epi128(x, k, 0x11));
      const __m256i t2 =
          _mm256_xor_si256(_mm512_castsi512_si256(t), _mm512_extracti64x4_epi64(t, 1));
      y = _mm_ternarylogic_epi64(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1),
                                 _mm512_extracti32x4_epi32(x, 3), 0x96);
    } else {
      y = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), state);
      data += 16;
      n -= 16;
    }
    const __m128i k128 = crc32c_fold_lane(crc32c_fold(128));
    for (; n >= 16; data += 16, n -= 16) {
      y = crc32c_fold128(y, k128, _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)));
    }
    c = _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(y)));
    c = _mm_crc32_u64(c, static_cast<uint64_t>(_mm_extract_epi64(y, 1)));
  }
  for (; n >= 8; n -= 8, data += 8) c = _mm_crc32_u64(c, load_u64(data));
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++data) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}

#endif  // AVX-512 family

}  // namespace
}  // namespace hzccl::kernels::detail
