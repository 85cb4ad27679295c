// On-wire format shared by fZ-light streams and the homomorphic operator.
//
// Layout (little-endian):
//   [FzHeader: 32 bytes]
//   [u64 chunk_payload_offset[num_chunks]]   offsets into the payload region
//   [i32 chunk_outlier[num_chunks]]          first quantized value per chunk
//   [payload]                                per-chunk block stream
//
// A chunk's payload is a sequence of encoded blocks (see fixed_len.hpp):
//   [u8 code_length][sign bits][full byte planes][remainder bits]
// where code_length==0 marks a constant block with no further bytes — the
// property hZ-dynamic's pipeline 1-3 dispatch exploits.
//
// The ompSZp baseline uses its own magic and layout (see omp_szp.hpp) but
// shares this header struct.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "hzccl/integrity/digest.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/pool.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {

inline constexpr uint32_t kFzMagic = 0x485A434C;   // "HZCL"
inline constexpr uint32_t kSzpMagic = 0x485A5350;  // "HZSP"
inline constexpr uint16_t kFormatVersion = 1;

/// Residuals are bounded to 31-bit magnitudes so every code length fits the
/// encoder; quantized values are bounded one bit lower so a single
/// homomorphic addition can never overflow the residual domain silently.
inline constexpr int32_t kMaxQuantMagnitude = (1 << 30) - 1;

/// Largest block length any wire format may carry: every decoder stages one
/// block in fixed stack scratch of this size, so parsers reject anything
/// larger before a decode loop ever runs.
inline constexpr uint32_t kMaxWireBlockLen = 512;

#pragma pack(push, 1)
struct FzHeader {
  uint32_t magic = kFzMagic;
  uint16_t version = kFormatVersion;
  uint16_t flags = 0;
  uint64_t num_elements = 0;
  uint32_t block_len = 0;
  uint32_t num_chunks = 0;
  double error_bound = 0.0;  // absolute bound
};
#pragma pack(pop)
static_assert(sizeof(FzHeader) == 32, "wire header must be exactly 32 bytes");

/// Owning compressed stream. The byte vector *is* the wire representation;
/// it can be sent as-is through simmpi or written to disk.
struct CompressedBuffer {
  std::vector<uint8_t> bytes;

  size_t size_bytes() const { return bytes.size(); }
  bool empty() const { return bytes.empty(); }
  std::span<const uint8_t> span() const { return bytes; }
};

/// Validated view into a serialized fZ-light stream.  The offset/outlier
/// tables are zero-copy views into the wire bytes when those bytes are
/// naturally aligned (the common case: vector-backed streams are heap
/// aligned, and the 32-byte header keeps both tables on their natural
/// boundaries); when a stream arrives at a misaligned address the tables
/// fall back to owned, aligned copies read through ByteReader, preserving
/// every bounds check either way.  `payload` (and on the fast path the
/// tables) borrow the underlying buffer, which must outlive the view —
/// releasing the backing CompressedBuffer into a BufferPool invalidates it.
/// Move-only: copying would let the spans outlive the owned fallback.
struct FzView {
  FzHeader header;
  std::span<const uint64_t> chunk_offsets;  ///< offsets into `payload`
  std::span<const int32_t> chunk_outliers;
  /// ABFT digest table (kFlagHasDigests): 2 words per chunk, interleaved
  /// [sum, wsum]; empty when the stream carries no digests.
  std::span<const uint64_t> chunk_digests;
  std::span<const uint8_t> payload;

  FzView() = default;
  FzView(FzView&&) noexcept = default;
  FzView& operator=(FzView&&) noexcept = default;
  FzView(const FzView&) = delete;
  FzView& operator=(const FzView&) = delete;

  /// True on the zero-copy fast path (tables borrow the wire bytes).
  bool borrows_tables() const { return owned_offsets.empty() && owned_outliers.empty(); }

  size_t num_elements() const { return header.num_elements; }
  uint32_t block_len() const { return header.block_len; }
  uint32_t num_chunks() const { return header.num_chunks; }
  double error_bound() const { return header.error_bound; }

  /// True when the stream carries the ABFT digest table.
  bool has_digests() const { return !chunk_digests.empty(); }

  /// Stored digest of one chunk (has_digests() must hold).
  HZCCL_HOT integrity::Digest chunk_digest(uint32_t chunk) const {
    if (chunk >= header.num_chunks || chunk_digests.size() < 2 * (chunk + size_t{1})) {
      detail::raise_parse_value("digest chunk index ", chunk, " out of range");
    }
    return integrity::Digest{chunk_digests[2 * chunk], chunk_digests[2 * chunk + 1]};
  }

  /// Payload byte range of one chunk.  Called once per chunk inside the
  /// parallel decode loops, so the failure paths are out-of-line cold raises.
  HZCCL_HOT std::span<const uint8_t> chunk_payload(uint32_t chunk) const {
    if (chunk >= header.num_chunks) {
      detail::raise_parse_value("chunk index ", chunk, " out of range");
    }
    const uint64_t begin = chunk_offsets[chunk];
    const uint64_t end =
        (chunk + 1 < header.num_chunks) ? chunk_offsets[chunk + 1] : payload.size();
    if (begin > end || end > payload.size()) {
      detail::raise_format("inconsistent chunk offset table");
    }
    return payload.subspan(begin, end - begin);
  }

  /// Misaligned-wire fallback storage; the spans above point here when
  /// non-empty.  std::vector moves keep heap pointers stable, so the
  /// defaulted move operations leave the spans valid.
  std::vector<uint64_t> owned_offsets;
  std::vector<int32_t> owned_outliers;
  std::vector<uint64_t> owned_digests;
};

/// Parse + validate a serialized fZ-light stream (throws FormatError).
[[nodiscard]] FzView parse_fz(std::span<const uint8_t> bytes);

/// True when two streams can be combined homomorphically: identical element
/// count, block length, chunk partition and error bound.
bool layout_compatible(const FzView& a, const FzView& b);

/// Throwing variant with a descriptive message.
void require_layout_compatible(const FzView& a, const FzView& b);

/// Header flag: the preamble carries the per-chunk ABFT digest table
/// (integrity/digest.hpp) between the offset and outlier tables — two u64
/// words per chunk, [sum, wsum] interleaved.  Digests are linear in the
/// quantized domain, so the homomorphic operators fold them without
/// decompressing; verifiers recompute them from the decoded chain.
inline constexpr uint16_t kFlagHasDigests = 1u << 2;

/// True when the stream carries the digest table.
inline bool has_digests(const FzHeader& h) { return (h.flags & kFlagHasDigests) != 0; }

/// Byte size of the fixed region before the payload.  Layout order:
/// header, u64 offset table, u64 digest table (kFlagHasDigests only — kept
/// adjacent to the offsets so both stay 8-aligned on vector-backed
/// streams), i32 outlier table.
inline size_t fz_preamble_size(uint32_t num_chunks, uint16_t flags = 0) {
  const size_t digest_words = (flags & kFlagHasDigests) ? 2 * sizeof(uint64_t) : 0;
  return sizeof(FzHeader) + num_chunks * (sizeof(uint64_t) + digest_words + sizeof(int32_t));
}

/// Header flag: the stream carries a trailing CRC-32C over everything that
/// precedes it.  Producers set it via add_checksum; parse_fz verifies the
/// digest and excludes the trailer from the payload view.
inline constexpr uint16_t kFlagChecksummed = 1u << 0;

/// Header flag: at least one block of the stream is a raw (verbatim float)
/// fallback block (see kRawBlockMarker in fixed_len.hpp).  The homomorphic
/// operators branch on it: unflagged operand pairs take the block-copy fast
/// pipelines untouched, flagged ones go through the chain-tracking slow path
/// that combines raw blocks in the float domain.
inline constexpr uint16_t kFlagHasRawBlocks = 1u << 1;

/// True when the stream may carry raw fallback blocks.
inline bool has_raw_blocks(const FzHeader& h) { return (h.flags & kFlagHasRawBlocks) != 0; }

/// Append an integrity trailer (and set the flag).  Idempotent on streams
/// that already carry one.  Intended for streams that cross storage or an
/// untrusted transport; the in-memory collectives skip it.
[[nodiscard]] CompressedBuffer add_checksum(CompressedBuffer stream);

/// Strip the trailer (and clear the flag); no-op on unchecksummed streams.
[[nodiscard]] CompressedBuffer strip_checksum(CompressedBuffer stream);

/// Assembles an fZ-light stream from per-chunk payloads produced in
/// parallel.  Each chunk gets a worst-case region of uninitialized arena
/// scratch that threads write independently; only the bytes a chunk keeps
/// are ever written.  finish() sizes the tight stream, copies each chunk's
/// payload into it once, fills the offset/outlier tables and header, and
/// returns it.  Producers build one only through assemble_chunks below.
class ChunkedStreamAssembler {
 public:
  /// `header` must carry the final element count, block length, chunk count
  /// and error bound; the magic/version are forced to the fZ values.  With a
  /// `pool`, finish() acquires the result's byte storage from it (the caller
  /// later releases the finished stream back).  The tables and the chunk
  /// regions come from the thread-local ScratchArena, tables first, so a
  /// warm steady-state assembly performs no heap allocation at all.
  explicit ChunkedStreamAssembler(FzHeader header, BufferPool* pool = nullptr);

  uint32_t num_chunks() const { return header_.num_chunks; }

  /// Worst-case scratch region for chunk `c`, uninitialized; safe for
  /// concurrent use across distinct chunks.  Bytes past the payload size
  /// given to set_chunk are never read.
  uint8_t* chunk_buffer(uint32_t c);

  /// Worst-case capacity of chunk `c`'s region.
  size_t chunk_capacity(uint32_t c) const;

  /// Record chunk `c`'s final payload size and outlier (thread-safe across
  /// distinct chunks).
  void set_chunk(uint32_t c, size_t payload_size, int32_t outlier);

  /// True when the header carries kFlagHasDigests: the assembler reserved a
  /// digest table and expects set_chunk_digest for every nonempty chunk.
  bool emits_digests() const { return has_digests(header_); }

  /// Record chunk `c`'s ABFT digest (thread-safe across distinct chunks).
  /// Only valid when emits_digests(); the flag must be set on the header
  /// passed to the constructor — it sizes the preamble.
  void set_chunk_digest(uint32_t c, integrity::Digest d);

  /// OR extra flags into the header before finish() (e.g. kFlagHasRawBlocks
  /// once a chunk emitted a raw block).  Not thread-safe: call from the
  /// serial region after the chunk loop.  kFlagHasDigests cannot be merged
  /// late — it sizes the preamble, so it must be on the constructor header.
  void merge_flags(uint16_t flags) {
    if ((flags & kFlagHasDigests) && !emits_digests()) {
      throw Error("ChunkedStreamAssembler: digest flag must be set at construction");
    }
    header_.flags |= flags;
  }

  /// Copy the chunks into the tight stream and seal it; the assembler is
  /// spent afterwards.
  [[nodiscard]] CompressedBuffer finish();

 private:
  FzHeader header_;
  BufferPool* pool_;
  /// Arena region backing every span below; rewound when the assembler
  /// dies.  Assemblers nest LIFO (one per in-flight op per thread), which
  /// member destruction order and RAII guarantee.
  ArenaScope scratch_;
  std::span<size_t> worst_offset_;  ///< num_chunks + 1 entries
  std::span<size_t> chunk_size_;
  std::span<int32_t> outliers_;
  std::span<uint64_t> digests_;       ///< 2 words per chunk when emitting digests
  std::span<uint64_t> tight_offset_;  ///< finish()'s offset table
  std::span<uint8_t> regions_;        ///< the chunk regions, uninitialized
};

/// What a chunk function of assemble_chunks reports for its chunk.
struct ChunkResult {
  size_t size = 0;           ///< payload bytes written into the chunk's region
  int32_t outlier = 0;       ///< the chunk's first quantized value
  integrity::Digest digest;  ///< stored only when the header carries digests
  bool raw = false;          ///< the chunk emitted a raw fallback block
};

/// A chunk outlier computed in 64 bits, narrowed back to the wire's int32;
/// HomomorphicOverflowError when it does not fit.
HZCCL_HOT inline int32_t checked_outlier(int64_t v) {
  if (v > std::numeric_limits<int32_t>::max() || v < std::numeric_limits<int32_t>::min()) {
    detail::raise_overflow("chunk outlier overflows int32");
  }
  return static_cast<int32_t>(v);
}

/// The one assembly loop of every fZ-light stream producer: runs
/// `chunk_fn(c, range, region) -> ChunkResult` over the header's chunks in
/// parallel on `num_threads` (0 = leave unchanged), where `region` is chunk
/// c's uninitialized worst-case output, and seals the stream.  Digests are
/// stored when the header carries kFlagHasDigests; kFlagHasRawBlocks is
/// merged when any chunk reports a raw block.  A caller's own arena tables
/// must be taken before this call, ahead of the chunk regions.
template <class ChunkFn>
[[nodiscard]] CompressedBuffer assemble_chunks(const FzHeader& header, int num_threads,
                                               BufferPool* pool, const ChunkFn& chunk_fn) {
  ChunkedStreamAssembler assembler(header, pool);
  std::atomic<bool> any_raw{false};
  {
    ScopedNumThreads scoped(num_threads);
    OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
    for (uint32_t c = 0; c < header.num_chunks; ++c) {
      errors.run([&, c] {
        const Range r = chunk_range(header.num_elements, static_cast<int>(header.num_chunks),
                                    static_cast<int>(c));
        const std::span<uint8_t> region{assembler.chunk_buffer(c), assembler.chunk_capacity(c)};
        const ChunkResult res = chunk_fn(c, r, region);
        if (res.raw) any_raw.store(true, std::memory_order_relaxed);
        assembler.set_chunk(c, res.size, res.outlier);
        if (assembler.emits_digests()) assembler.set_chunk_digest(c, res.digest);
      });
    }
    errors.rethrow();
  }
  if (any_raw.load(std::memory_order_relaxed)) assembler.merge_flags(kFlagHasRawBlocks);
  return assembler.finish();
}

}  // namespace hzccl
