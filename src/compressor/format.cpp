#include "hzccl/compressor/format.hpp"

#include <string>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {

FzView parse_fz(std::span<const uint8_t> bytes) {
  FzView v;
  {
    ByteReader reader(bytes, "fz stream");
    v.header = reader.read<FzHeader>("header");
  }
  if (v.header.magic != kFzMagic) {
    throw FormatError("bad magic: not an fZ-light stream");
  }
  if (v.header.version != kFormatVersion) {
    throw FormatError("unsupported format version " + std::to_string(v.header.version));
  }
  if (v.header.block_len == 0 || v.header.block_len > kMaxWireBlockLen) {
    throw FormatError("block length out of range");
  }
  if (v.header.num_chunks == 0 && v.header.num_elements != 0) {
    throw FormatError("nonempty stream with zero chunks");
  }
  if (!(v.header.error_bound > 0.0)) throw FormatError("error bound must be positive");

  const size_t preamble = fz_preamble_size(v.header.num_chunks, v.header.flags);
  if (bytes.size() < preamble) throw FormatError("stream shorter than offset tables");

  if (v.header.flags & kFlagChecksummed) {
    if (bytes.size() < preamble + sizeof(uint32_t)) {
      throw FormatError("checksummed stream shorter than its trailer");
    }
    ByteReader trailer(bytes.subspan(bytes.size() - sizeof(uint32_t)), "fz trailer");
    const uint32_t stored = trailer.read<uint32_t>("checksum");
    const uint32_t computed = crc32c(bytes.subspan(0, bytes.size() - sizeof(uint32_t)));
    if (stored != computed) {
      throw FormatError("stream checksum mismatch: corrupt or truncated data");
    }
    bytes = bytes.subspan(0, bytes.size() - sizeof(uint32_t));
    // The view represents the verified logical stream; clearing the flag
    // keeps header copies (e.g. homomorphic outputs) from promising a
    // trailer they do not carry.
    v.header.flags &= static_cast<uint16_t>(~kFlagChecksummed);
  }

  ByteReader reader(bytes, "fz stream");
  reader.skip(sizeof(FzHeader), "header");
  // Zero-copy fast path: view the offset/outlier tables in place when the
  // wire bytes are naturally aligned (always true for vector-backed streams
  // — the 32-byte header keeps both tables on their boundaries).  Misaligned
  // arrivals fall back to the owned, aligned copies of the PR-2 era; the
  // bounds checks (read_bytes / read_vector / the validation below) are
  // identical on both paths.
  const uint32_t nchunks = v.header.num_chunks;
  const auto offset_bytes = reader.read_bytes(
      checked_mul(nchunks, sizeof(uint64_t), "chunk offset table"), "chunk offset table");
  std::span<const uint8_t> digest_bytes;
  if (v.header.flags & kFlagHasDigests) {
    digest_bytes = reader.read_bytes(
        checked_mul(nchunks, 2 * sizeof(uint64_t), "chunk digest table"), "chunk digest table");
  }
  const auto outlier_bytes = reader.read_bytes(
      checked_mul(nchunks, sizeof(int32_t), "chunk outlier table"), "chunk outlier table");
  v.chunk_offsets = aligned_table_view<uint64_t>(offset_bytes, nchunks, "chunk offset table");
  v.chunk_outliers = aligned_table_view<int32_t>(outlier_bytes, nchunks, "chunk outlier table");
  if (nchunks > 0 && v.chunk_offsets.empty()) {
    ByteReader table(offset_bytes, "chunk offset table");
    v.owned_offsets = table.read_vector<uint64_t>(nchunks, "chunk offset table");
    v.chunk_offsets = v.owned_offsets;
  }
  if (nchunks > 0 && v.chunk_outliers.empty()) {
    ByteReader table(outlier_bytes, "chunk outlier table");
    v.owned_outliers = table.read_vector<int32_t>(nchunks, "chunk outlier table");
    v.chunk_outliers = v.owned_outliers;
  }
  if ((v.header.flags & kFlagHasDigests) && nchunks > 0) {
    v.chunk_digests =
        aligned_table_view<uint64_t>(digest_bytes, 2 * size_t{nchunks}, "chunk digest table");
    if (v.chunk_digests.empty()) {
      ByteReader table(digest_bytes, "chunk digest table");
      v.owned_digests = table.read_vector<uint64_t>(2 * size_t{nchunks}, "chunk digest table");
      v.chunk_digests = v.owned_digests;
    }
  }
  v.payload = reader.rest();

  if (v.header.num_chunks == 0 && !v.payload.empty()) {
    throw FormatError("empty stream carries trailing payload bytes");
  }
  // Every block occupies at least its code-length byte, so the payload must
  // hold one byte per block of the grid the header claims.  This bounds
  // num_elements by the actual byte count before any caller allocates a
  // decode buffer from it.
  if (v.header.num_elements > 0) {
    const size_t min_blocks =
        (v.header.num_elements + v.header.block_len - 1) / v.header.block_len;
    if (v.payload.size() < min_blocks) {
      throw FormatError("payload shorter than one byte per block of its grid");
    }
  }

  // Offset table sanity: monotone, in-range. chunk_payload() re-checks per
  // access, but catching corruption here gives a better error site.
  uint64_t prev = 0;
  for (uint32_t c = 0; c < v.header.num_chunks; ++c) {
    const uint64_t off = v.chunk_offsets[c];
    if (off < prev || off > v.payload.size()) {
      throw FormatError("offset table corrupt at chunk " + std::to_string(c));
    }
    prev = off;
  }
  return v;
}

bool layout_compatible(const FzView& a, const FzView& b) {
  return a.header.num_elements == b.header.num_elements &&
         a.header.block_len == b.header.block_len &&
         a.header.num_chunks == b.header.num_chunks &&
         a.header.error_bound == b.header.error_bound;
}

ChunkedStreamAssembler::ChunkedStreamAssembler(FzHeader header, BufferPool* pool)
    : header_(header), pool_(pool), scratch_(ScratchArena::local()) {
  header_.magic = kFzMagic;
  header_.version = kFormatVersion;
  const uint32_t nchunks = header_.num_chunks;
  if (nchunks == 0 && header_.num_elements != 0) {
    throw Error("ChunkedStreamAssembler: nonempty stream needs chunks");
  }
  worst_offset_ = scratch_.alloc<size_t>(nchunks + 1);
  for (uint32_t c = 0; c < nchunks; ++c) {
    const Range r = chunk_range(header_.num_elements, static_cast<int>(nchunks),
                                static_cast<int>(c));
    const size_t nblocks = (r.size() + header_.block_len - 1) / header_.block_len;
    worst_offset_[c + 1] =
        worst_offset_[c] + nblocks * max_encoded_block_size(header_.block_len);
  }
  chunk_size_ = scratch_.alloc<size_t>(nchunks);
  outliers_ = scratch_.alloc<int32_t>(nchunks);
  if (has_digests(header_)) digests_ = scratch_.alloc<uint64_t>(2 * size_t{nchunks});
  tight_offset_ = scratch_.alloc<uint64_t>(nchunks);
  // The regions come last, after every table: a table taken after them
  // would sit past the largest request and could force a block of its own.
  regions_ = scratch_.alloc_for_overwrite<uint8_t>(worst_offset_[nchunks]);
}

uint8_t* ChunkedStreamAssembler::chunk_buffer(uint32_t c) {
  return regions_.data() + worst_offset_[c];
}

size_t ChunkedStreamAssembler::chunk_capacity(uint32_t c) const {
  return worst_offset_[c + 1] - worst_offset_[c];
}

void ChunkedStreamAssembler::set_chunk(uint32_t c, size_t payload_size, int32_t outlier) {
  if (payload_size > chunk_capacity(c)) {
    throw CapacityError("ChunkedStreamAssembler: chunk payload exceeds worst-case capacity");
  }
  chunk_size_[c] = payload_size;
  outliers_[c] = outlier;
}

void ChunkedStreamAssembler::set_chunk_digest(uint32_t c, integrity::Digest d) {
  if (!has_digests(header_)) {
    throw Error("ChunkedStreamAssembler: set_chunk_digest without kFlagHasDigests");
  }
  if (c >= header_.num_chunks) {
    throw Error("ChunkedStreamAssembler: digest chunk index out of range");
  }
  digests_[2 * c] = d.sum;
  digests_[2 * c + 1] = d.wsum;
}

CompressedBuffer ChunkedStreamAssembler::finish() {
  const uint32_t nchunks = header_.num_chunks;
  const size_t preamble = fz_preamble_size(nchunks, header_.flags);
  size_t payload = 0;
  for (uint32_t c = 0; c < nchunks; ++c) {
    tight_offset_[c] = payload;
    payload += chunk_size_[c];
  }

  // Only the preamble is value-initialized (and then overwritten); each
  // chunk's kept bytes are appended into reserved capacity, one copy each.
  CompressedBuffer result;
  if (pool_) result.bytes = pool_->acquire(preamble + payload);
  result.bytes.reserve(preamble + payload);
  result.bytes.resize(preamble);
  for (uint32_t c = 0; c < nchunks; ++c) {
    const uint8_t* const chunk = chunk_buffer(c);
    result.bytes.insert(result.bytes.end(), chunk, chunk + chunk_size_[c]);
  }

  ByteWriter writer({result.bytes.data(), preamble}, "fz preamble");
  writer.write(header_, "header");
  writer.write_array(tight_offset_.data(), nchunks, "chunk offset table");
  if (has_digests(header_)) {
    writer.write_array(digests_.data(), 2 * size_t{nchunks}, "chunk digest table");
  }
  writer.write_array(outliers_.data(), nchunks, "chunk outlier table");
  return result;
}

CompressedBuffer add_checksum(CompressedBuffer stream) {
  if (stream.bytes.size() < sizeof(FzHeader)) {
    throw FormatError("add_checksum: stream shorter than header");
  }
  FzHeader header = ByteReader(stream.bytes, "fz stream").read<FzHeader>("header");
  if (header.flags & kFlagChecksummed) return stream;  // already sealed
  header.flags |= kFlagChecksummed;
  ByteWriter({stream.bytes.data(), sizeof header}, "fz stream").write(header, "header");
  const uint32_t digest = crc32c(stream.bytes);
  const size_t at = stream.bytes.size();
  stream.bytes.resize(at + sizeof digest);
  ByteWriter({stream.bytes.data() + at, sizeof digest}, "fz trailer")
      .write(digest, "checksum");
  return stream;
}

CompressedBuffer strip_checksum(CompressedBuffer stream) {
  if (stream.bytes.size() < sizeof(FzHeader)) {
    throw FormatError("strip_checksum: stream shorter than header");
  }
  FzHeader header = ByteReader(stream.bytes, "fz stream").read<FzHeader>("header");
  if (!(header.flags & kFlagChecksummed)) return stream;
  if (stream.bytes.size() < sizeof(FzHeader) + sizeof(uint32_t)) {
    throw FormatError("strip_checksum: missing trailer");
  }
  stream.bytes.resize(stream.bytes.size() - sizeof(uint32_t));
  header.flags &= static_cast<uint16_t>(~kFlagChecksummed);
  ByteWriter({stream.bytes.data(), sizeof header}, "fz stream").write(header, "header");
  return stream;
}

void require_layout_compatible(const FzView& a, const FzView& b) {
  if (!layout_compatible(a, b)) {
    throw LayoutMismatchError(
        "homomorphic operands have different layouts: (" +
        std::to_string(a.header.num_elements) + "," + std::to_string(a.header.block_len) + "," +
        std::to_string(a.header.num_chunks) + "," + std::to_string(a.header.error_bound) +
        ") vs (" + std::to_string(b.header.num_elements) + "," +
        std::to_string(b.header.block_len) + "," + std::to_string(b.header.num_chunks) + "," +
        std::to_string(b.header.error_bound) + ")");
  }
}

}  // namespace hzccl
