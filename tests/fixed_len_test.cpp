// Exhaustive tests of the fixed-length block codec: the sign and remainder
// planes at every remainder width and tail, the block layout against an
// independent bit-level model at every dispatch level, block encode/decode
// round trips across every code length and block tail shape, and the
// malformed-input error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/random.hpp"

namespace hzccl {
namespace {

TEST(CodeLength, MatchesBitWidth) {
  EXPECT_EQ(code_length_for(0), 0);
  EXPECT_EQ(code_length_for(1), 1);
  EXPECT_EQ(code_length_for(2), 2);
  EXPECT_EQ(code_length_for(3), 2);
  EXPECT_EQ(code_length_for(255), 8);
  EXPECT_EQ(code_length_for(256), 9);
  EXPECT_EQ(code_length_for((1u << 31) - 1), 31);
}

TEST(EncodedBlockSize, ConstantBlockIsOneByte) {
  EXPECT_EQ(encoded_block_size(0, 32), 1u);
}

TEST(EncodedBlockSize, MatchesLayoutArithmetic) {
  // c=11, n=32: 1 head + 4 signs + 1 plane of 32 + 3 rem bits -> 12 bytes.
  EXPECT_EQ(encoded_block_size(11, 32), 1u + 4u + 32u + 12u);
  // c=8, n=10: 1 + 2 signs + 10 plane + 0 rem.
  EXPECT_EQ(encoded_block_size(8, 10), 1u + 2u + 10u);
}

// --- sign and remainder planes at every remainder width ----------------------
//
// A block at code length 1..7 is the sign plane plus one remainder plane of
// that width, with no byte planes: the bit-shifting packers on their own.

class PackBitsTest : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(PackBitsTest, RoundTrips) {
  const auto [bits, n] = GetParam();
  Rng rng(static_cast<uint64_t>(bits * 1000 + n));
  std::vector<int32_t> residuals(n);
  for (auto& r : residuals) {
    const auto mag = static_cast<int32_t>(rng.below(1u << bits));
    r = rng.below(2) != 0u ? -mag : mag;
  }
  residuals[n / 2] = 1 << (bits - 1);  // code length is bits

  const size_t size = encoded_block_size(bits, n);
  std::vector<uint8_t> buf(size + 8, 0xCD);
  const uint8_t* end = encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
  ASSERT_EQ(end, buf.data() + size);
  EXPECT_EQ(buf[0], bits);

  std::vector<int32_t> decoded(n, 12345);
  EXPECT_EQ(decode_block(buf.data(), end, n, decoded.data()), end);
  EXPECT_EQ(decoded, residuals);

  // The encoder must not write past encoded_block_size(bits, n).
  for (size_t i = size; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], 0xCD) << "overwrite at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthsAndTails, PackBitsTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values<size_t>(1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64,
                                                 100, 511, 512)),
    [](const auto& pinfo) {
      return "bits" + std::to_string(std::get<0>(pinfo.param)) + "_n" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(PackBits, RejectsInvalidWidths) {
  // The checked entry point in front of the encode slot takes code lengths
  // 0..31 only; 32 fits the buffer, so only the width check can reject it.
  uint32_t mags[8] = {};
  uint32_t signs[8] = {};
  uint8_t out[64] = {};
  EXPECT_THROW(encode_block_prepared(mags, signs, 8, 32, out, out + sizeof out),
               QuantizationRangeError);
  EXPECT_NO_THROW(encode_block_prepared(mags, signs, 8, kMaxCodeLength, out, out + sizeof out));
}

// --- the block layout against a bit-level model, at every level ------------
//
// The block codec slots work on 8-value (AVX2 PDEP/PEXT) or 32-value
// (AVX-512) groups, and remainder widths 3/5/6/7 straddle byte boundaries
// inside each group.  These cases pin the fixed_len.hpp layout at every
// code length, at lengths that leave a partial final group, on every level
// the host supports.

/// Appends bits LSB-first: bit k of the stream is bit k % 8 of byte k / 8.
class BitWriter {
 public:
  void put(uint32_t value, int bits) {
    for (int k = 0; k < bits; ++k) {
      if (used_ % 8 == 0) bytes_.push_back(0);
      if ((value >> k) & 1u) bytes_.back() |= static_cast<uint8_t>(1u << (used_ % 8));
      ++used_;
    }
  }
  /// Pads the stream to a byte boundary with zero bits.
  void align() { used_ = bytes_.size() * 8; }
  std::vector<uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t used_ = 0;
};

/// Independent model of an encoded block at code length c > 0: the code
/// byte, one sign bit per value (1 = negative), c/8 planes holding byte k of
/// every magnitude, then the high c%8 bits of every magnitude; each
/// section starts on a byte boundary.
std::vector<uint8_t> block_oracle(const std::vector<int32_t>& residuals, int c) {
  BitWriter w;
  w.put(static_cast<uint32_t>(c), 8);
  for (const int32_t r : residuals) w.put(r < 0 ? 1u : 0u, 1);
  w.align();
  const int planes = c / 8;
  for (int k = 0; k < planes; ++k) {
    for (const int32_t r : residuals) w.put(static_cast<uint32_t>(std::abs(r)) >> (8 * k), 8);
  }
  for (const int32_t r : residuals) {
    w.put(static_cast<uint32_t>(std::abs(r)) >> (8 * planes), c % 8);
  }
  w.align();
  return w.bytes();
}

class PackBitsLevelSweep : public ::testing::Test {
 protected:
  kernels::DispatchLevel prev_ = kernels::active_dispatch_level();
  void TearDown() override { kernels::set_dispatch_level(prev_); }
};

TEST_F(PackBitsLevelSweep, StraddlingWidthsMatchBitstreamOracleAtEveryLevel) {
  // Lengths around the 8- and 32-value groups (never a multiple of 32)
  // leave a partial final group for the tail to finish.
  const size_t lengths[] = {1,  3,  5,  9,  11, 13,  17,  23,  24,
                            40, 57, 63, 65, 71, 100, 123, 129, 509};
  constexpr uint8_t kGuard = 0xCD;
  constexpr int32_t kCanary = 0x5A5A5A5A;
  for (const auto level : kernels::supported_levels()) {
    kernels::set_dispatch_level(level);
    for (int c = 1; c <= kMaxCodeLength; ++c) {
      for (const size_t n : lengths) {
        Rng rng(static_cast<uint64_t>(c) * 10000 + n);
        std::vector<int32_t> residuals(n);
        for (auto& r : residuals) {
          const auto mag = static_cast<int32_t>(rng.below(uint64_t{1} << c));
          r = rng.below(2) != 0u ? -mag : mag;
        }
        residuals[n / 2] = static_cast<int32_t>(uint32_t{1} << (c - 1));  // code length is c
        const std::vector<uint8_t> want = block_oracle(residuals, c);
        const std::string where = std::string("level=") + kernels::level_name(level) +
                                  " c=" + std::to_string(c) + " n=" + std::to_string(n);

        std::vector<uint8_t> buf(want.size() + 8, kGuard);
        const uint8_t* end =
            encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
        ASSERT_EQ(end, buf.data() + want.size()) << where;
        const auto written = static_cast<ptrdiff_t>(want.size());
        ASSERT_EQ(std::vector<uint8_t>(buf.begin(), buf.begin() + written), want) << where;
        for (size_t i = want.size(); i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], kGuard) << "overwrite at " << i << " " << where;
        }

        std::vector<int32_t> decoded(n + 8, kCanary);
        ASSERT_EQ(decode_block(want.data(), want.data() + want.size(), n, decoded.data()),
                  want.data() + want.size())
            << where;
        for (size_t i = n; i < decoded.size(); ++i) {
          ASSERT_EQ(decoded[i], kCanary) << "decode wrote past n at " << i << " " << where;
        }
        decoded.resize(n);
        ASSERT_EQ(decoded, residuals) << where;
      }
    }
  }
}

TEST_F(PackBitsLevelSweep, BlockCodecStraddlingRemainderMatchesAcrossLevels) {
  // Residuals whose code length is 8k + {3,5,6,7} give the remainder plane
  // a width that straddles byte boundaries; the encoded bytes must not
  // depend on the active level.
  for (const int code_len : {3, 5, 11, 14, 21, 23}) {
    Rng rng(static_cast<uint64_t>(code_len));
    const size_t n = 100;  // not a multiple of 8: partial sign/remainder group
    std::vector<int32_t> residuals(n);
    const uint32_t top = 1u << (code_len - 1);
    for (auto& r : residuals) {
      const auto mag = static_cast<int32_t>(top | rng.below(top));
      r = rng.below(2) != 0u ? -mag : mag;
    }
    std::vector<std::vector<uint8_t>> encodings;
    for (const auto level : kernels::supported_levels()) {
      kernels::set_dispatch_level(level);
      std::vector<uint8_t> buf(encoded_block_size(code_len, n) + 8, 0xCD);
      uint8_t* end = encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
      buf.resize(static_cast<size_t>(end - buf.data()));

      std::vector<int32_t> decoded(n);
      decode_block(buf.data(), buf.data() + buf.size(), n, decoded.data());
      ASSERT_EQ(decoded, residuals)
          << "level=" << kernels::level_name(level) << " code_len=" << code_len;
      encodings.push_back(std::move(buf));
    }
    for (size_t i = 1; i < encodings.size(); ++i) {
      ASSERT_EQ(encodings[i], encodings[0]) << "encoding drifted between levels, code_len="
                                            << code_len;
    }
  }
}

// --- block codec sweep --------------------------------------------------------

struct BlockCase {
  int code_len;  // magnitude bit width to exercise
  size_t n;      // block length (incl. ragged tails)
};

class BlockCodecTest : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockCodecTest, RoundTripsSignedResiduals) {
  const auto [code_len, n] = GetParam();
  Rng rng(static_cast<uint64_t>(code_len * 7919 + n));
  std::vector<int32_t> residuals(n);
  for (auto& r : residuals) {
    if (code_len == 0) {
      r = 0;
    } else {
      const auto mag = static_cast<int64_t>(rng.below(1ull << code_len));
      r = static_cast<int32_t>(rng.below(2) ? -mag : mag);
    }
  }
  // Force the block to actually hit the target code length.
  if (code_len > 0) residuals[n / 2] = (1 << (code_len - 1)) | 1;

  std::vector<uint8_t> buf(max_encoded_block_size(n) + 8, 0xEE);
  uint8_t* end = encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
  const size_t written = static_cast<size_t>(end - buf.data());
  EXPECT_EQ(written, encoded_block_size(buf[0], n));
  EXPECT_LE(written, max_encoded_block_size(n));
  EXPECT_EQ(peek_block_size(buf.data(), buf.data() + buf.size(), n), written);

  std::vector<int32_t> decoded(n, 12345);
  const uint8_t* read_end = decode_block(buf.data(), buf.data() + written, n, decoded.data());
  EXPECT_EQ(read_end, buf.data() + written);
  EXPECT_EQ(decoded, residuals);
}

std::vector<BlockCase> block_cases() {
  std::vector<BlockCase> cases;
  for (int c : {0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 24, 25, 30, 31}) {
    for (size_t n : {1ul, 3ul, 8ul, 9ul, 24ul, 32ul, 33ul, 100ul, 512ul}) {
      cases.push_back({c, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockCodecTest, ::testing::ValuesIn(block_cases()),
                         [](const auto& pinfo) {
                           return "c" + std::to_string(pinfo.param.code_len) + "_n" +
                                  std::to_string(pinfo.param.n);
                         });

TEST(BlockCodec, AllZeroBlockEncodesToOneByte) {
  const std::vector<int32_t> zeros(32, 0);
  uint8_t buf[8] = {0xAA};
  uint8_t* end = encode_block(zeros.data(), 32, buf, buf + sizeof buf);
  EXPECT_EQ(end - buf, 1);
  EXPECT_EQ(buf[0], 0);
}

TEST(BlockCodec, NegativeZeroMagnitudeEdge) {
  // INT32_MIN has no positive counterpart: it must be rejected upstream; the
  // codec itself handles every other extreme.
  std::vector<int32_t> residuals = {std::numeric_limits<int32_t>::min() + 1,
                                    std::numeric_limits<int32_t>::max()};
  std::vector<uint8_t> buf(max_encoded_block_size(2), 0);
  uint8_t* end = encode_block(residuals.data(), 2, buf.data(), buf.data() + buf.size());
  std::vector<int32_t> decoded(2);
  decode_block(buf.data(), end, 2, decoded.data());
  EXPECT_EQ(decoded, residuals);
}

TEST(BlockCodec, DecodeRejectsTruncation) {
  std::vector<int32_t> residuals(32, 1000);
  std::vector<uint8_t> buf(max_encoded_block_size(32), 0);
  uint8_t* end = encode_block(residuals.data(), 32, buf.data(), buf.data() + buf.size());
  const size_t size = static_cast<size_t>(end - buf.data());
  int32_t out[32];
  EXPECT_THROW(decode_block(buf.data(), buf.data() + size - 1, 32, out), FormatError);
  EXPECT_THROW(decode_block(buf.data(), buf.data(), 32, out), FormatError);
}

TEST(BlockCodec, DecodeRejectsBadCodeLength) {
  uint8_t buf[64] = {};
  buf[0] = 33;  // > kMaxCodeLength
  int32_t out[8];
  EXPECT_THROW(decode_block(buf, buf + sizeof buf, 8, out), FormatError);
  EXPECT_THROW(peek_block_size(buf, buf + sizeof buf, 8), FormatError);
}

TEST(BlockCodec, PeekRejectsTruncatedBlock) {
  std::vector<int32_t> residuals(32, 77);
  std::vector<uint8_t> buf(max_encoded_block_size(32), 0);
  uint8_t* end = encode_block(residuals.data(), 32, buf.data(), buf.data() + buf.size());
  EXPECT_THROW(peek_block_size(buf.data(), end - 3, 32), FormatError);
}

TEST(BlockCodec, OversizedBlockRejected) {
  std::vector<int32_t> residuals(513, 0);
  std::vector<uint8_t> buf(4096, 0);
  EXPECT_THROW(encode_block(residuals.data(), 513, buf.data(), buf.data() + buf.size()), Error);
}

}  // namespace
}  // namespace hzccl
