#include "hzccl/homomorphic/hz_static.hpp"

#include <algorithm>
#include <limits>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl {
namespace {

/// Element-wise checked residual add over the whole-chunk prediction arrays
/// (the static pipeline's O(chunk) middle phase, extracted so the hot loop is
/// a provable leaf — the scratch-owning driver cannot be HZCCL_HOT itself).
HZCCL_HOT void add_residuals_checked(int32_t* acc, const int32_t* other, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int64_t s = static_cast<int64_t>(acc[i]) + other[i];
    if (s > std::numeric_limits<int32_t>::max() || s < std::numeric_limits<int32_t>::min()) {
      detail::raise_overflow("residual sum overflows the 31-bit magnitude domain");
    }
    acc[i] = static_cast<int32_t>(s);
  }
}

/// The static pipeline's per-chunk work: IFE of *every* block of both
/// operands into full-size integer prediction arrays (the large scratch the
/// dynamic pipeline avoids), element-wise add, then FE of every block.
size_t static_add_chunk(std::span<const uint8_t> ca, std::span<const uint8_t> cb,
                        size_t chunk_elems, uint32_t block_len, uint8_t* out,
                        size_t out_capacity) {
  ArenaScope scratch;
  const std::span<int32_t> scratch_a = scratch.alloc_for_overwrite<int32_t>(chunk_elems);
  const std::span<int32_t> scratch_b = scratch.alloc_for_overwrite<int32_t>(chunk_elems);

  const uint8_t* pa = ca.data();
  const uint8_t* const ea = pa + ca.size();
  const uint8_t* pb = cb.data();
  const uint8_t* const eb = pb + cb.size();
  for (size_t pos = 0; pos < chunk_elems; pos += block_len) {
    const size_t n = std::min<size_t>(block_len, chunk_elems - pos);
    pa = decode_block(pa, ea, n, scratch_a.data() + pos);
    pb = decode_block(pb, eb, n, scratch_b.data() + pos);
  }
  if (pa != ea || pb != eb) {
    detail::raise_format("hz_add_static: chunk payload longer than its block grid");
  }

  add_residuals_checked(scratch_a.data(), scratch_b.data(), chunk_elems);

  uint8_t* const out_begin = out;
  const uint8_t* const out_end = out + out_capacity;
  for (size_t pos = 0; pos < chunk_elems; pos += block_len) {
    const size_t n = std::min<size_t>(block_len, chunk_elems - pos);
    out = encode_block(scratch_a.data() + pos, n, out, out_end);
  }
  return static_cast<size_t>(out - out_begin);
}

}  // namespace

CompressedBuffer hz_add_static(const FzView& a, const FzView& b, int num_threads) {
  require_layout_compatible(a, b);
  // Raw fallback blocks carry floats, not residuals, so the whole-chunk IFE
  // below cannot represent them; such streams take hZ-dynamic's
  // chain-tracking raw combine.
  if (has_raw_blocks(a.header) || has_raw_blocks(b.header)) {
    return detail::hz_combine(a, b, +1, nullptr, num_threads, nullptr);
  }
  // Same digest-folding rule as hz_add, keeping the byte-identical-output
  // contract when operands carry ABFT digest tables.
  FzHeader header = a.header;
  const bool fold_digests = a.has_digests() && b.has_digests();
  if (!fold_digests) header.flags &= static_cast<uint16_t>(~kFlagHasDigests);
  return assemble_chunks(
      header, num_threads, nullptr, [&](uint32_t c, Range r, std::span<uint8_t> out) {
        ChunkResult res;
        res.outlier = checked_outlier(static_cast<int64_t>(a.chunk_outliers[c]) +
                                      b.chunk_outliers[c]);
        if (r.size() > 0) {
          res.size = static_add_chunk(a.chunk_payload(c), b.chunk_payload(c), r.size(),
                                      a.block_len(), out.data(), out.size());
        }
        if (fold_digests) res.digest = a.chunk_digest(c) + b.chunk_digest(c);
        return res;
      });
}

CompressedBuffer hz_add_static(const CompressedBuffer& a, const CompressedBuffer& b,
                               int num_threads) {
  return hz_add_static(parse_fz(a.bytes), parse_fz(b.bytes), num_threads);
}

}  // namespace hzccl
