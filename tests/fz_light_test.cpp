// fZ-light compressor tests: the error-bound invariant (the library's core
// property) swept across datasets, bounds, block lengths and chunk counts;
// layout determinism; and the malformed-stream error paths.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/random.hpp"

namespace hzccl {
namespace {

struct SweepCase {
  DatasetId dataset;
  double rel_bound;
  uint32_t block_len;
  uint32_t num_chunks;  // 0 = auto
};

class FzSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FzSweepTest, ErrorBoundNeverViolatedAndRatioPositive) {
  const SweepCase c = GetParam();
  const std::vector<float> data = generate_field(c.dataset, Scale::kTiny, 0);

  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(data, c.rel_bound);
  params.block_len = c.block_len;
  params.num_chunks = c.num_chunks;

  const CompressedBuffer compressed = fz_compress(data, params);
  const std::vector<float> decoded = fz_decompress(compressed);
  ASSERT_EQ(decoded.size(), data.size());

  const ErrorStats stats = compare(data, decoded);
  // The invariant of §III-B2: quantization is the sole error source and it
  // is bounded by eb — up to one float ulp of the reconstructed value, since
  // the output is float32.
  const double ulp_slack =
      1.2e-7 * std::max(std::abs(stats.min), std::abs(stats.max));
  EXPECT_LE(stats.max_abs_err, params.abs_error_bound * (1.0 + 1e-5) + ulp_slack)
      << dataset_name(c.dataset) << " rel=" << c.rel_bound;
  EXPECT_GT(compression_ratio(data.size() * sizeof(float), compressed.size_bytes()), 1.0);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (DatasetId id : all_datasets()) {
    for (double rel : {1e-1, 1e-2, 1e-3, 1e-4}) {
      cases.push_back({id, rel, 32, 0});
    }
  }
  // Layout corners on one dataset: odd block lengths and chunk counts.
  for (uint32_t bl : {1u, 3u, 8u, 33u, 256u, 512u}) cases.push_back({DatasetId::kNyx, 1e-3, bl, 0});
  for (uint32_t nc : {1u, 2u, 7u, 64u, 256u}) cases.push_back({DatasetId::kHurricane, 1e-3, 32, nc});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DatasetSweep, FzSweepTest, ::testing::ValuesIn(sweep_cases()),
                         [](const auto& pinfo) {
                           const SweepCase& c = pinfo.param;
                           return dataset_slug(c.dataset) + "_rel" +
                                  std::to_string(static_cast<int>(-std::log10(c.rel_bound))) +
                                  "_bl" + std::to_string(c.block_len) + "_nc" +
                                  std::to_string(c.num_chunks);
                         });

TEST(FzLight, StreamIsIndependentOfThreadCount) {
  // Layout depends only on (D, block_len, num_chunks, eb) — two ranks
  // compressing with different thread counts must produce identical bytes,
  // or homomorphic reduction across heterogeneous nodes would break.
  const std::vector<float> data = generate_field(DatasetId::kCesmAtm, Scale::kTiny, 1);
  FzParams p1, p4;
  p1.abs_error_bound = p4.abs_error_bound = 1e-3;
  p1.num_threads = 1;
  p4.num_threads = 4;
  EXPECT_EQ(fz_compress(data, p1).bytes, fz_compress(data, p4).bytes);
}

TEST(FzLight, DecompressionIsDeterministic) {
  const std::vector<float> data = generate_field(DatasetId::kRtmSim2, Scale::kTiny, 0);
  FzParams params;
  params.abs_error_bound = 1e-3;
  const CompressedBuffer compressed = fz_compress(data, params);
  EXPECT_EQ(fz_decompress(compressed, 1), fz_decompress(compressed, 4));
}

TEST(FzLight, EmptyInput) {
  FzParams params;
  const CompressedBuffer compressed = fz_compress({}, params);
  const std::vector<float> decoded = fz_decompress(compressed);
  EXPECT_TRUE(decoded.empty());
}

TEST(FzLight, SingleElement) {
  const std::vector<float> data = {3.14159f};
  FzParams params;
  params.abs_error_bound = 1e-4;
  const std::vector<float> decoded = fz_decompress(fz_compress(data, params));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_NEAR(decoded[0], data[0], 1e-4);
}

TEST(FzLight, ConstantFieldCompressesToMetadataOnly) {
  const std::vector<float> data(100000, 7.5f);
  FzParams params;
  params.abs_error_bound = 1e-3;
  const CompressedBuffer compressed = fz_compress(data, params);
  // Every block is constant: ~1 byte per block + preamble.
  EXPECT_LT(compressed.size_bytes(), data.size() / 8);
  const std::vector<float> decoded = fz_decompress(compressed);
  for (float v : decoded) ASSERT_NEAR(v, 7.5f, 1e-3);
}

TEST(FzLight, ZeroFieldRoundTripsExactly) {
  const std::vector<float> data(4096, 0.0f);
  FzParams params;
  params.abs_error_bound = 1e-4;
  const std::vector<float> decoded = fz_decompress(fz_compress(data, params));
  for (float v : decoded) ASSERT_EQ(v, 0.0f);
}

TEST(FzLight, RejectsNonPositiveBound) {
  FzParams params;
  params.abs_error_bound = 0.0;
  EXPECT_THROW(fz_compress(std::vector<float>{1.0f}, params), Error);
  params.abs_error_bound = -1.0;
  EXPECT_THROW(fz_compress(std::vector<float>{1.0f}, params), Error);
}

TEST(FzLight, RejectsBadBlockLength) {
  FzParams params;
  params.block_len = 0;
  EXPECT_THROW(fz_compress(std::vector<float>{1.0f}, params), Error);
  params.block_len = 513;
  EXPECT_THROW(fz_compress(std::vector<float>{1.0f}, params), Error);
}

TEST(FzLight, QuantizationRangeGuard) {
  // 1e30 / (2 * 1e-4) is far beyond the 30-bit quantized domain, as the
  // chunk's anchor and in a middle block after raw ones (only those count).
  const std::vector<float> data = {1e30f};
  FzParams params;
  params.abs_error_bound = 1e-4;
  EXPECT_THROW(fz_compress(data, params), QuantizationRangeError);
  std::vector<float> middle(32 * 6, 0.5f);
  middle[32 + 3] = std::numeric_limits<float>::quiet_NaN();
  middle[32 * 3 + 7] = 1e30f;
  middle[32 * 4 + 1] = std::numeric_limits<float>::infinity();
  const uint64_t raw_before = raw_block_encodes();
  for (const std::vector<float>& d : {data, middle}) {
    try {
      (void)fz_compress(d, params);
      ADD_FAILURE() << "no QuantizationRangeError";
    } catch (const QuantizationRangeError& e) {
      EXPECT_STREQ(e.what(), "value/error-bound ratio exceeds the 30-bit quantization domain");
    }
  }
  EXPECT_EQ(raw_block_encodes() - raw_before, 1u);
}

TEST(FzLight, DecompressSizeMismatchThrows) {
  const std::vector<float> data(100, 1.0f);
  FzParams params;
  const CompressedBuffer compressed = fz_compress(data, params);
  std::vector<float> wrong(99);
  EXPECT_THROW(fz_decompress(compressed, wrong), Error);
}

// --- corrupted stream handling ------------------------------------------------

class FzCorruptionTest : public ::testing::Test {
 protected:
  CompressedBuffer make_stream() {
    const std::vector<float> data = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
    FzParams params;
    // NYX spans several orders of magnitude: the bound must be relative or
    // the quantization-domain guard fires (by design).
    params.abs_error_bound = abs_bound_from_rel(data, 1e-3);
    return fz_compress(data, params);
  }
};

TEST_F(FzCorruptionTest, BadMagicRejected) {
  CompressedBuffer s = make_stream();
  s.bytes[0] ^= 0xFF;
  EXPECT_THROW(parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorruptionTest, BadVersionRejected) {
  CompressedBuffer s = make_stream();
  s.bytes[4] = 99;
  EXPECT_THROW(parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorruptionTest, TruncatedHeaderRejected) {
  CompressedBuffer s = make_stream();
  s.bytes.resize(16);
  EXPECT_THROW(parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorruptionTest, TruncatedPayloadRejected) {
  CompressedBuffer s = make_stream();
  s.bytes.resize(s.bytes.size() - 5);
  std::vector<float> out(parse_fz(s.bytes).num_elements());
  EXPECT_THROW(fz_decompress(s, out), FormatError);
}

TEST_F(FzCorruptionTest, CorruptOffsetTableRejected) {
  CompressedBuffer s = make_stream();
  const FzView v = parse_fz(s.bytes);
  ASSERT_GT(v.num_chunks(), 1u);
  // Make chunk 1's offset decrease below chunk 0's.
  uint64_t bogus = ~uint64_t{0};
  std::memcpy(s.bytes.data() + sizeof(FzHeader) + sizeof(uint64_t), &bogus, sizeof bogus);
  EXPECT_THROW(parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorruptionTest, GarbageCodeLengthRejected) {
  CompressedBuffer s = make_stream();
  const FzView v = parse_fz(s.bytes);
  const size_t payload_start = fz_preamble_size(v.num_chunks());
  s.bytes[payload_start] = 0xEE;  // invalid code length at the first block
  std::vector<float> out(v.num_elements());
  EXPECT_THROW(fz_decompress(s, out), FormatError);
}

TEST(FzParamsTest, AutoChunksDeterministicAndBounded) {
  EXPECT_EQ(FzParams::auto_chunks(0, 32), 1u);
  EXPECT_EQ(FzParams::auto_chunks(100, 32), 1u);
  EXPECT_GE(FzParams::auto_chunks(1 << 24, 32), 1u);
  EXPECT_LE(FzParams::auto_chunks(size_t{1} << 40, 32), 256u);
  // Determinism across call sites is what lets two ranks agree on layouts.
  EXPECT_EQ(FzParams::auto_chunks(123456, 32), FzParams::auto_chunks(123456, 32));
}

// --- chunk-granular random access -----------------------------------------

TEST(FzDecompressRange, MatchesFullDecompression) {
  const std::vector<float> data = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(data, 1e-3);
  const CompressedBuffer compressed = fz_compress(data, params);
  const std::vector<float> full = fz_decompress(compressed);

  for (auto [begin, end] : std::vector<std::pair<size_t, size_t>>{
           {0, data.size()}, {0, 1}, {100, 5000}, {data.size() - 7, data.size()},
           {data.size() / 2, data.size() / 2}}) {
    std::vector<float> out(end - begin, -1.0f);
    fz_decompress_range(compressed, begin, end, out);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], full[begin + i]) << "range [" << begin << "," << end << ") at " << i;
    }
  }
}

TEST(FzDecompressRange, RejectsBadRanges) {
  const std::vector<float> data(1000, 1.0f);
  FzParams params;
  const CompressedBuffer compressed = fz_compress(data, params);
  std::vector<float> out(10);
  EXPECT_THROW(fz_decompress_range(compressed, 10, 5, out), Error);     // inverted
  EXPECT_THROW(fz_decompress_range(compressed, 995, 1005, out), Error); // past end
  EXPECT_THROW(fz_decompress_range(compressed, 0, 5, out), Error);      // size mismatch
}

TEST(FzDecompressRange, WorksOnHomomorphicStreams) {
  const std::vector<float> f0 = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kNyx, Scale::kTiny, 1);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer sum = hz_add(fz_compress(f0, params), fz_compress(f1, params));
  const std::vector<float> full = fz_decompress(sum);
  std::vector<float> out(256);
  fz_decompress_range(sum, 1000, 1256, out);
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], full[1000 + i]);
}

TEST(FzLight, RatioImprovesWithLooserBound) {
  const std::vector<float> data = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  FzParams loose, tight;
  loose.abs_error_bound = abs_bound_from_rel(data, 1e-1);
  tight.abs_error_bound = abs_bound_from_rel(data, 1e-4);
  EXPECT_LT(fz_compress(data, loose).size_bytes(), fz_compress(data, tight).size_bytes());
}

}  // namespace
}  // namespace hzccl
