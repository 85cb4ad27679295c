// Runtime-dispatched kernel table for the bit-plane / homomorphic hot paths.
//
// The compressors and homomorphic operators do all of their per-element work
// through a handful of primitives: the whole-block fixed-length codec (paper
// §III-B3: a sign plane, c/8 byte planes and one x-bit remainder plane per
// block, decoded or encoded in one call), fZ-light's fused block pass —
// raw-fallback classification, quantization and 1-D Lorenzo prediction in
// one walk over the block (§III-B2) — and three chunk walks, each of which
// takes a whole chunk's block chain in one call, validates every block and
// consumes each residual block while its values are still in registers:
// decode, prefix sum and dequantize (decompression, the block pass run
// backwards), the ABFT digest fold (the verify walk), and the hZ-dynamic
// combine of two chunks, pipelines 1-3 as copies and pipeline 4's decode,
// integer merge and re-encode (§III-C).  SZx's min/max scan and the
// CRC-32C every wire frame carries complete the set: eight slots.  This
// header exposes those primitives as a table of function pointers with one
// table per *dispatch level*:
//
//   kScalar — the portable C++ reference.  Always compiled, always
//             supported; it is both the fallback and the oracle every
//             vectorized variant is differentially tested against
//             (tests/kernel_conformance_test.cpp).  Its chunk walks visit
//             one block at a time: the scalar block decode, then the
//             scalar consumer (serial prefix sum, serial digest fold,
//             int64 merge and the scalar encode).
//   kAvx2   — AVX2 + BMI2 + SSE4.2: the block codec on 8-value PDEP/PEXT
//             groups (the chunk walks run it block by block into a stack
//             block, then the consumer), the vector classify and predict of
//             the fused block pass, and the hardware crc32 instruction.
//   kAvx512 — AVX-512 (F/BW/DQ/VL/VBMI) with PCLMUL and VPCLMULQDQ, on
//             top of the AVX2 level's set: the block codec on 32-value
//             groups (VPERMB + VPMULTISHIFTQB remainder planes), with one
//             group decoder shared by decode_block and the three chunk
//             walks, whose state stays in registers from block to block
//             (the dequantize chain carry; the digest fold's weights and
//             lane sums, reduced once per chunk), and one group encoder
//             shared by encode_block and pipeline 4, which encodes the
//             merged block from registers; the fused block pass in one
//             masked walk (VCVTPD2QQ, the exact llrint, with the
//             predecessor lane from VALIGND); and a carry-less CRC-32C:
//             four 512-bit VPCLMULQDQ accumulators fold 256 bytes per step
//             down to a 128-bit remainder that two crc32 instructions
//             reduce.
//
// All three levels run one chunk walk (walk_blocks in
// src/kernels/kernel_impls.hpp), which owns block validation, raw and
// constant blocks and the short last block; a level only supplies the
// visitor of a residual block (and of a pipeline-4 pair).
//
// Contract: every variant produces byte-identical output to the scalar
// reference on identical input — including sign conventions, guard
// accumulators and out-of-range lanes — so the active level can never leak
// into the wire format.  Kernels never allocate and never throw (a chunk
// slot returns a ChunkStatus its caller raises on); callers own all buffers
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
/// How a chunk slot ended: kOk, or the first fault in the chunk's block
/// chain, in the order the walk meets them (block by block; within a block,
/// operand a's chain before b's, then the block's own work).  The slots
/// never raise; each caller turns a status into its exception.
enum class ChunkStatus : uint8_t {
  kOk = 0,
  kEmptyBlock,       ///< a block starts at the end of its payload
  kBadCodeLength,    ///< a code-length byte in 32..254
  kTruncatedBlock,   ///< a residual block's bytes run past the payload
  kTruncatedRaw,     ///< a raw block's 1 + 4n bytes run past the payload
  kTrailingBytes,    ///< bytes after the chunk's last block
  kRawInMerge,       ///< combine: a raw block in a pipeline-4 pair
  kOverflow,         ///< combine: a merged residual past +-(2^31 - 1)
  kCopyCapacity,     ///< combine: pipeline 1, 2 (sign +1) or 3 output past capacity
  kNegateCapacity,   ///< combine: pipeline 2's negated copy (sign -1) past capacity
  kEncodeCapacity,   ///< combine: pipeline 4's encoded block past capacity
};

/// The chunk slots below walk one fZ-light chunk's block chain
/// (hzccl/compressor/fixed_len.hpp layout): `count` values in blocks of
/// block_len (1..kMaxBlockValues, the last block short), each block a
/// constant (code length 0), residual (1..31) or raw (0xFF) block, the
/// payload [payload, payload + size) ending exactly after the last one.
/// They read only the payload, write only their outputs, and validate
/// every block before its work runs.  Residual chains are int64 and start
/// at the chunk's outlier q; raw blocks sit outside the chain.
///
/// Decompress (fZ-light): out[j] = (float)((double)q_j * twice_eb) for
/// each chain value q_j (Quantizer::dequantize's bits, both conversions
/// rounding under MXCSR), a raw block's floats verbatim.  Writes exactly
/// `count` floats on kOk.
using DecompressChunkFn = ChunkStatus (*)(const uint8_t* payload, size_t size, size_t count,
                                          uint32_t block_len, int64_t q, double twice_eb,
                                          float* out);
/// ABFT digest fold (hzccl/integrity/digest.hpp, the verify walk): on kOk
/// *sum and *wsum hold the sum of each chain value q_j and of (j + 1) *
/// q_j over the chunk's non-raw positions j, mod 2^64.
using FoldChunkFn = ChunkStatus (*)(const uint8_t* payload, size_t size, size_t count,
                                    uint32_t block_len, int64_t q, uint64_t* sum,
                                    uint64_t* wsum);

/// What a combine_chunk call did: its status, the output bytes of the
/// blocks it finished, and the hZ-dynamic pipeline counts of those blocks
/// (HzPipelineStats' fields; raw pairs are not this slot's).
struct CombineChunkResult {
  ChunkStatus status = ChunkStatus::kOk;
  size_t bytes = 0;
  uint64_t p1 = 0;
  uint64_t p2 = 0;
  uint64_t p3 = 0;
  uint64_t p4 = 0;
  uint64_t copied_bytes = 0;  ///< bytes pipelines 2 and 3 copied
  uint64_t p4_elements = 0;   ///< values pipeline 4 merged

  uint64_t blocks() const { return p1 + p2 + p3 + p4; }
};

/// hZ-dynamic combine of one chunk pair, a + sign_b * b (sign_b +1 or -1),
/// into [out, out + capacity), both chains walked in lockstep (paper
/// §III-C): pipeline 1 (both blocks constant) writes a constant block, 2 (a
/// constant) copies b's block, negated for sign_b -1 (sign plane inverted
/// with its padding kept zero, or a raw block's float sign bits flipped), 3
/// (b constant) copies a's block, and 4 decodes both, merges s_j = a_j +
/// sign_b * b_j in int64 and encodes s at the code length of the OR of all
/// |s_j|; an OR past INT32_MAX is kOverflow.  Every output block is checked
/// against the capacity before it is written.
using CombineChunkFn = CombineChunkResult (*)(const uint8_t* a, size_t size_a, const uint8_t* b,
                                              size_t size_b, size_t count, uint32_t block_len,
                                              int sign_b, uint8_t* out, size_t capacity);

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
  DecompressChunkFn decompress_chunk = nullptr;
  FoldChunkFn fold_chunk = nullptr;
  CombineChunkFn combine_chunk = nullptr;
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
