// Runtime-dispatched kernel table for the bit-plane / homomorphic hot paths.
//
// The compressors and homomorphic operators do all of their per-element work
// through a handful of primitives: the whole-block fixed-length codec (paper
// §III-B3: a sign plane, c/8 byte planes and one x-bit remainder plane per
// block, decoded or encoded in one call), fZ-light's fused block pass —
// raw-fallback classification, quantization and 1-D Lorenzo prediction in
// one walk over the block (§III-B2) — and its three fused decodes, each of
// which decodes a block and consumes its residuals while they are still in
// registers: prefix sum and dequantize (decompression, the block pass run
// backwards), the ABFT digest fold (the verify walk), and the two-operand
// quantized-delta merge at the heart of hz_add's pipeline 4 (§III-C).  SZx's
// min/max scan and the CRC-32C every wire frame carries complete the set.
// This header exposes those primitives as a table of function pointers with
// one table per *dispatch level*:
//
//   kScalar — the portable C++ reference.  Always compiled, always
//             supported; it is both the fallback and the oracle every
//             vectorized variant is differentially tested against
//             (tests/kernel_conformance_test.cpp).  Its fused decodes are
//             the scalar block decode followed by the scalar consumer.
//   kAvx2   — AVX2 + BMI2 + SSE4.2: the block codec on 8-value PDEP/PEXT
//             groups (the fused decodes run it into a stack block, then the
//             consumer), the vector classify and predict of the fused block
//             pass, and the hardware crc32 instruction.
//   kAvx512 — AVX-512 (F/BW/DQ/VL/VBMI) with PCLMUL and VPCLMULQDQ, on
//             top of the AVX2 level's set: the block codec on 32-value
//             groups (VPERMB + VPMULTISHIFTQB remainder planes), with one
//             group decoder shared by decode_block and the three fused
//             decodes (in-register int64 scan + VCVTQQ2PD dequantize,
//             closed-form digest sums, int64 merge), the fused block pass
//             in one masked walk (VCVTPD2QQ, the exact llrint, with the
//             predecessor lane from VALIGND), and a carry-less CRC-32C:
//             four 512-bit VPCLMULQDQ accumulators fold 256 bytes per step
//             down to a 128-bit remainder that two crc32 instructions
//             reduce.
//
// Contract: every variant produces byte-identical output to the scalar
// reference on identical input — including sign conventions, guard
// accumulators and out-of-range lanes — so the active level can never leak
// into the wire format.  Kernels never allocate; callers own all buffers
// (stack blocks or BufferPool/ScratchArena storage).
//
// The active table is chosen once, lazily: the highest level both compiled
// in and supported by the host CPU, overridable with HZCCL_KERNEL_LEVEL
// (scalar|avx2|avx512) or set_dispatch_level().  A request the host cannot
// honor degrades to the best supported level below it; it never fails.
// Swapping levels is not synchronized against kernels already executing on
// other threads — switch between operations (tests/bench do), not during.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace hzccl::kernels {

enum class DispatchLevel : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumDispatchLevels = 3;

/// Lane length of the AVX2 level's CRC-32C kernel: it runs three crc32
/// chains over adjacent lanes of this many bytes and joins them with a
/// zero-shift table built for exactly this length.  A multiple of 8 (the
/// instruction consumes 8 bytes per step).
inline constexpr size_t kCrc32cLaneBytes = 1024;

/// Raw-fallback verdict of the fused block pass, decided exactly as
/// classify_raw_block (hzccl/stats/metrics.hpp) decides it: any NaN or
/// infinity makes the block non-finite; otherwise more than n/2 subnormal
/// values make it denormal-heavy.
enum class RawVerdict : uint8_t { kNone = 0, kNonFinite = 1, kDenormalHeavy = 2 };

/// What the fused block pass found.  On a raw verdict the guards are 0.
struct QuantizePredictResult {
  uint64_t q_guard = 0;  ///< OR of all |q| (64-bit; llrint's overflow value counts as 2^63)
  uint32_t max_mag = 0;  ///< OR of all residual magnitudes (the code-length source)
  RawVerdict raw = RawVerdict::kNone;
};

/// fZ-light's fused block pass (paper §III-B2) over data[0, n), n <=
/// kMaxBlockValues; reads exactly n floats.  First the raw verdict: on a
/// raw one the slot returns it and writes nothing.  Otherwise it writes
/// q[i] = llrint(data[i] * inv_twice_eb) in double and the 1-D Lorenzo
/// residuals r[i] = (int32)q[i] - (int32)q[i-1] in int64 as the
/// magnitude/sign split (sign 1 = negative), and returns both guards.  The
/// chain starts from q[-1] = q_prev, or with `restart` from the block's own
/// first value (q[-1] = (int32)q[0], so r[0] = 0).  The slot never raises:
/// a q_guard above the quantization domain is the caller's to reject
/// before it uses q, mags or signs.
using QuantizePredictFn = QuantizePredictResult (*)(const float* data, size_t n,
                                                    double inv_twice_eb, int32_t q_prev,
                                                    bool restart, int64_t* q, uint32_t* mags,
                                                    uint32_t* signs);
/// SZx classification scan: out = {min, max, max |value|} over data[0, n).
/// Contract: n >= 1 and the block is NaN-free (classify_raw_block routes
/// non-finite blocks to the raw fallback before the scan runs).  Negative
/// zeros are canonicalized to +0 in all three outputs so every level is
/// byte-identical regardless of lane/reduction order.
using SzxScanFn = void (*)(const float* data, size_t n, float* out);
/// CRC-32C (Castagnoli, reflected, pre- and post-inverted) of data[0, n),
/// continuing from the CRC `crc` of the bytes before it (0 to start).
using Crc32cFn = uint32_t (*)(const uint8_t* data, size_t n, uint32_t crc);

/// Largest block the whole-block codec slots accept (fZ-light's block_len
/// limit).
inline constexpr size_t kMaxBlockValues = 512;

/// Whole-block fixed-length decode (hzccl/compressor/fixed_len.hpp layout):
/// `payload` is a block's bytes after its code-length byte, at code length
/// c in 1..31, for n <= kMaxBlockValues values; writes n signed
/// residuals.  Reads exactly the payload's ceil(n/8) + (c/8)*n +
/// ceil(n*(c%8)/8) bytes.  The caller has checked c, n and the length.
using DecodeBlockFn = void (*)(const uint8_t* payload, size_t n, int code_len,
                               int32_t* residuals);
/// Whole-block fixed-length encode, the inverse of DecodeBlockFn: bit 0 of
/// each sign word and the low c bits of each magnitude (bits above c are
/// dropped) become the payload after the code-length byte.  Writes exactly
/// the payload bytes DecodeBlockFn reads, nothing past them.
using EncodeBlockFn = void (*)(const uint32_t* mags, const uint32_t* signs, size_t n,
                               int code_len, uint8_t* payload);
/// The fused decodes below take one residual block's payload exactly as
/// DecodeBlockFn does (code length c in 1..31, n <= kMaxBlockValues, the
/// caller has checked c, n and the length), read exactly its bytes, and use
/// the signed residuals r_0..r_{n-1} without storing them.
///
/// Decode, prefix sum and dequantize (fZ-light decompression): with the
/// chain q_j = q + r_0 + ... + r_j in int64, writes exactly n floats
/// out[j] = (float)((double)q_j * twice_eb) — the bits
/// Quantizer::dequantize produces, both conversions rounding under MXCSR.
/// Returns the chain value after the block, q_{n-1}.
using DecodeDequantizeFn = int64_t (*)(const uint8_t* payload, size_t n, int code_len, int64_t q,
                                       double twice_eb, float* out);
/// Decode and ABFT digest fold (hzccl/integrity/digest.hpp, the verify
/// walk): each chain value q_j at 1-based position pos + j is added to *sum
/// and (pos + j) * q_j to *wsum, mod 2^64 (the closed form; the words equal
/// the per-value loop's).  Returns the chain value after the block.
using DecodeFoldFn = int64_t (*)(const uint8_t* payload, size_t n, int code_len, int64_t q,
                                 uint64_t pos, uint64_t* sum, uint64_t* wsum);
/// Decode two blocks and merge them (hZ-dynamic pipeline 4): s_j = a_j +
/// sign_b * b_j in int64, written as the magnitude/sign split the encoder
/// consumes (mags = low 32 bits of |s_j|, signs = 1 for negative).  Returns
/// the OR of all |s_j| (64-bit): <= INT32_MAX means every lane fit and the
/// value doubles as the code-length source; above that the caller must
/// throw before using mags/signs.
using DecodeCombineFn = uint64_t (*)(const uint8_t* payload_a, int code_len_a,
                                     const uint8_t* payload_b, int code_len_b, size_t n,
                                     int sign_b, uint32_t* mags, uint32_t* signs);

/// One dispatch level's kernel set.  Entries a level does not
/// hand-vectorize alias the next-lower level's function, so every slot of a
/// supported table is callable.
struct KernelTable {
  DispatchLevel level = DispatchLevel::kScalar;
  QuantizePredictFn fz_quantize_predict = nullptr;
  SzxScanFn szx_scan = nullptr;
  Crc32cFn crc32c = nullptr;
  DecodeBlockFn decode_block = nullptr;
  EncodeBlockFn encode_block = nullptr;
  DecodeDequantizeFn decode_dequantize = nullptr;
  DecodeFoldFn decode_fold = nullptr;
  DecodeCombineFn decode_combine = nullptr;
};

/// "scalar" / "avx2" / "avx512".
const char* level_name(DispatchLevel level);
/// Inverse of level_name (case-insensitive); nullopt for anything else.
std::optional<DispatchLevel> parse_level(std::string_view name);

/// The level's variant translation units were built with the required ISA
/// flags (independent of what the host CPU can run).
bool level_compiled(DispatchLevel level);
/// level_compiled and the host CPU reports every required ISA extension.
bool level_supported(DispatchLevel level);
/// Highest supported level (kScalar is always supported).
DispatchLevel best_supported_level();
/// All supported levels, ascending — the sweep axis of the conformance tier.
std::vector<DispatchLevel> supported_levels();

/// The table of a specific supported level (conformance tests pin the
/// scalar oracle through this).  Throws Error for an unsupported level.
const KernelTable& table(DispatchLevel level);

/// The active table.  First use resolves HZCCL_KERNEL_LEVEL (unrecognized
/// values warn on stderr and fall back to best_supported_level()).
const KernelTable& active();
DispatchLevel active_dispatch_level();

/// Activate the best supported level <= request; returns what was actually
/// activated (graceful fallback, never throws).
DispatchLevel set_dispatch_level(DispatchLevel request);

/// Re-resolve the level from HZCCL_KERNEL_LEVEL (testing hook for env
/// forcing); returns the activated level.
DispatchLevel reload_from_env();

/// Number of table activations so far (stats surface; >=1 once any kernel
/// has run).
uint64_t dispatch_swaps();

}  // namespace hzccl::kernels
