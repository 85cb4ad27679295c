// CRC-32C (Castagnoli) — the integrity check on every simmpi wire frame
// (header and payload, on send and on receive) and behind the optional
// stream checksums.  It runs through the kernel table's crc32c slot
// (hzccl/kernels/dispatch.hpp): a VPCLMULQDQ fold finished by the crc32
// instruction on hosts with the AVX-512 kernel family, three interleaved
// SSE4.2 crc32 chains on hosts with the AVX2 one, the byte-at-a-time table
// loop elsewhere.  Every level returns the same value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hzccl {

/// CRC-32C of `data`, optionally continuing from a previous crc.
uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace hzccl
