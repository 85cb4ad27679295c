// Tier-1 coverage for the bounds-checked wire substrate (util/bytes.hpp)
// plus a corpus of hand-built malformed streams for every decoder.  Each
// corpus case mangles one structural property of a valid stream and asserts
// the parser rejects it with a structured error — never by reading out of
// bounds (the ASan tier re-runs these with instrumentation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/compressor/szx_like.hpp"
#include "hzccl/util/bytes.hpp"

namespace hzccl {
namespace {

// ---------------------------------------------------------------------------
// ByteReader

TEST(ByteReaderTest, ReadsValuesAtMisalignedOffsets) {
  // One leading byte forces every subsequent read to be misaligned.
  std::vector<uint8_t> buf(1 + sizeof(uint32_t) + sizeof(double));
  buf[0] = 0xAB;
  const uint32_t u = 0xDEADBEEF;
  const double d = 3.25;
  std::memcpy(buf.data() + 1, &u, sizeof u);
  std::memcpy(buf.data() + 1 + sizeof u, &d, sizeof d);

  ByteReader reader(buf, "test");
  EXPECT_EQ(reader.read<uint8_t>("pad"), 0xAB);
  EXPECT_EQ(reader.read<uint32_t>("u"), u);
  EXPECT_EQ(reader.read<double>("d"), d);
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(reader.offset(), buf.size());
}

TEST(ByteReaderTest, ThrowsParseErrorOnTruncatedRead) {
  std::vector<uint8_t> buf(3, 0);
  ByteReader reader(buf, "test");
  EXPECT_THROW(reader.read<uint32_t>("u"), ParseError);
  // A failed read must not consume anything.
  EXPECT_EQ(reader.offset(), 0u);
  EXPECT_EQ(reader.read<uint8_t>("b"), 0);
}

TEST(ByteReaderTest, ReadVectorCopiesAndAdvances) {
  std::vector<uint8_t> buf(1 + 3 * sizeof(uint64_t), 0);
  const uint64_t vals[3] = {1, 2, 1ull << 60};
  std::memcpy(buf.data() + 1, vals, sizeof vals);

  ByteReader reader(buf, "test");
  reader.skip(1, "pad");
  const auto out = reader.read_vector<uint64_t>(3, "vals");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[2], 1ull << 60);
  EXPECT_TRUE(reader.empty());
}

TEST(ByteReaderTest, ReadVectorRejectsCountOverflow) {
  std::vector<uint8_t> buf(16, 0);
  ByteReader reader(buf, "test");
  const size_t huge = std::numeric_limits<size_t>::max() / 4;
  EXPECT_THROW(reader.read_vector<uint64_t>(huge, "vals"), ParseError);
}

TEST(ByteReaderTest, ReadVectorRejectsTruncatedTable) {
  std::vector<uint8_t> buf(15, 0);  // one byte short of two u64
  ByteReader reader(buf, "test");
  EXPECT_THROW(reader.read_vector<uint64_t>(2, "vals"), ParseError);
}

TEST(ByteReaderTest, ReadBytesRestAndSkip) {
  std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  ByteReader reader(buf, "test");
  const auto head = reader.read_bytes(2, "head");
  EXPECT_EQ(head[1], 2);
  EXPECT_THROW(reader.skip(10, "gap"), ParseError);
  const auto tail = reader.rest();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0], 3);
  EXPECT_TRUE(reader.rest().empty());
}

TEST(ByteReaderTest, ZeroCountReadsSucceedOnEmptyBuffer) {
  ByteReader reader({}, "test");
  EXPECT_TRUE(reader.read_vector<uint64_t>(0, "vals").empty());
  EXPECT_TRUE(reader.read_bytes(0, "none").empty());
  EXPECT_TRUE(reader.empty());
}

// ---------------------------------------------------------------------------
// ByteWriter

TEST(ByteWriterTest, WritesValuesArraysAndBytes) {
  std::vector<uint8_t> buf(sizeof(uint32_t) + 2 * sizeof(uint64_t) + 2, 0);
  ByteWriter writer(buf, "test");
  writer.write<uint32_t>(0x01020304, "u");
  const uint64_t vals[2] = {7, 8};
  writer.write_array(vals, 2, "vals");
  const uint8_t raw[2] = {0xAA, 0xBB};
  writer.write_bytes(raw, "raw");
  EXPECT_EQ(writer.remaining(), 0u);

  ByteReader reader(buf, "test");
  EXPECT_EQ(reader.read<uint32_t>("u"), 0x01020304u);
  EXPECT_EQ(reader.read<uint64_t>("v0"), 7u);
  EXPECT_EQ(reader.read<uint64_t>("v1"), 8u);
  EXPECT_EQ(reader.read<uint8_t>("r0"), 0xAA);
}

TEST(ByteWriterTest, ThrowsCapacityErrorOnOverflow) {
  // Larger backing storage than the writer's span: GCC's static
  // array-bounds analysis cannot see through the require() throw.
  std::vector<uint8_t> storage(16, 0);
  ByteWriter writer({storage.data(), 3}, "test");
  EXPECT_THROW(writer.write<uint32_t>(1, "u"), CapacityError);
  EXPECT_EQ(writer.offset(), 0u);  // failed write consumes nothing
  const uint64_t vals[1] = {1};
  EXPECT_THROW(writer.write_array(vals, 1, "vals"), CapacityError);
}

TEST(ByteWriterTest, RejectsArrayCountOverflow) {
  std::vector<uint8_t> buf(8, 0);
  ByteWriter writer(buf, "test");
  const uint64_t v = 0;
  EXPECT_THROW(writer.write_array(&v, std::numeric_limits<size_t>::max() / 2, "vals"),
               ParseError);
}

// ---------------------------------------------------------------------------
// Helpers

TEST(CheckedMulTest, ProductsAndOverflow) {
  EXPECT_EQ(checked_mul(0, std::numeric_limits<size_t>::max(), "t"), 0u);
  EXPECT_EQ(checked_mul(6, 7, "t"), 42u);
  EXPECT_THROW(checked_mul(std::numeric_limits<size_t>::max() / 2, 3, "t"), ParseError);
}

TEST(FloatBitsTest, RoundTripsIncludingNegativeZero) {
  for (float v : {0.0f, -0.0f, 1.5f, -3.25e7f, std::numeric_limits<float>::infinity()}) {
    EXPECT_EQ(float_bits(float_from_bits(float_bits(v))), float_bits(v));
  }
}

TEST(FloatsFromBytesTest, RoundTripsAndRejectsRaggedLength) {
  const float data[3] = {1.0f, -2.0f, 0.5f};
  std::vector<uint8_t> buf(sizeof data);
  std::memcpy(buf.data(), data, sizeof data);
  const auto out = floats_from_bytes(buf, "test");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], -2.0f);

  buf.pop_back();
  EXPECT_THROW(floats_from_bytes(buf, "test"), ParseError);
  EXPECT_TRUE(floats_from_bytes({}, "test").empty());
}

// ---------------------------------------------------------------------------
// Corpus scaffolding: build a valid stream, mangle one property, expect a
// structured rejection.

std::vector<float> ramp(size_t n) {
  std::vector<float> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = 0.25f * static_cast<float>(i) + (i % 7 == 0 ? 3.5f : 0.0f);
  }
  return data;
}

FzHeader header_of(const std::vector<uint8_t>& bytes) {
  FzHeader h;
  EXPECT_GE(bytes.size(), sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  return h;
}

void put_header(std::vector<uint8_t>& bytes, const FzHeader& h) {
  std::memcpy(bytes.data(), &h, sizeof h);
}

template <class Fn>
CompressedBuffer with_header(CompressedBuffer s, Fn&& mutate) {
  FzHeader h = header_of(s.bytes);
  mutate(h);
  put_header(s.bytes, h);
  return s;
}

// ---------------------------------------------------------------------------
// fZ-light corpus

class FzCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FzParams params;
    params.num_chunks = 4;
    stream_ = fz_compress(ramp(1000), params);
  }
  CompressedBuffer stream_;
};

TEST_F(FzCorpusTest, ValidStreamParses) {
  const FzView v = parse_fz(stream_.bytes);
  EXPECT_EQ(v.num_elements(), 1000u);
  EXPECT_EQ(v.num_chunks(), 4u);
}

TEST_F(FzCorpusTest, EmptyBuffer) { EXPECT_THROW((void)parse_fz({}), ParseError); }

TEST_F(FzCorpusTest, TruncatedHeader) {
  stream_.bytes.resize(sizeof(FzHeader) - 1);
  EXPECT_THROW((void)parse_fz(stream_.bytes), ParseError);
}

TEST_F(FzCorpusTest, BadMagic) {
  auto s = with_header(stream_, [](FzHeader& h) { h.magic = 0x12345678; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, UnsupportedVersion) {
  auto s = with_header(stream_, [](FzHeader& h) { h.version = 99; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, ZeroBlockLen) {
  auto s = with_header(stream_, [](FzHeader& h) { h.block_len = 0; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, OversizedBlockLen) {
  auto s = with_header(stream_, [](FzHeader& h) { h.block_len = kMaxWireBlockLen + 1; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, ZeroChunksWithElements) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_chunks = 0; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, NonPositiveErrorBound) {
  auto s = with_header(stream_, [](FzHeader& h) { h.error_bound = 0.0; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, NanErrorBound) {
  auto s = with_header(stream_, [](FzHeader& h) {
    h.error_bound = std::numeric_limits<double>::quiet_NaN();
  });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

// The FzView regression from the reinterpret_cast era: a header whose
// num_chunks implies offset/outlier tables larger than the whole buffer.
// The old span construction indexed straight into the out-of-bounds region.
TEST_F(FzCorpusTest, InflatedChunkCountBeyondBuffer) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_chunks = 1u << 28; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, TruncatedMidOffsetTable) {
  stream_.bytes.resize(sizeof(FzHeader) + 3);  // cut inside the first offset
  EXPECT_THROW((void)parse_fz(stream_.bytes), FormatError);
}

TEST_F(FzCorpusTest, TruncatedMidOutlierTable) {
  const FzView v = parse_fz(stream_.bytes);
  stream_.bytes.resize(sizeof(FzHeader) + v.num_chunks() * sizeof(uint64_t) + 2);
  EXPECT_THROW((void)parse_fz(stream_.bytes), FormatError);
}

TEST_F(FzCorpusTest, NonMonotoneOffsetTable) {
  // Swap the chunk-1 and chunk-2 offsets in place.
  uint8_t* table = stream_.bytes.data() + sizeof(FzHeader);
  uint64_t o1, o2;
  std::memcpy(&o1, table + sizeof(uint64_t), sizeof o1);
  std::memcpy(&o2, table + 2 * sizeof(uint64_t), sizeof o2);
  ASSERT_NE(o1, o2) << "fixture must produce distinct offsets";
  std::memcpy(table + sizeof(uint64_t), &o2, sizeof o2);
  std::memcpy(table + 2 * sizeof(uint64_t), &o1, sizeof o1);
  EXPECT_THROW((void)parse_fz(stream_.bytes), FormatError);
}

TEST_F(FzCorpusTest, OffsetPastPayload) {
  uint8_t* table = stream_.bytes.data() + sizeof(FzHeader);
  const uint64_t huge = 1ull << 40;
  std::memcpy(table + 3 * sizeof(uint64_t), &huge, sizeof huge);
  EXPECT_THROW((void)parse_fz(stream_.bytes), FormatError);
}

TEST_F(FzCorpusTest, InflatedElementCount) {
  // Claims ~256x the elements the payload could possibly encode; the parser
  // must reject before any caller sizes a decode buffer from the header.
  auto s = with_header(stream_, [](FzHeader& h) { h.num_elements = 1ull << 33; });
  EXPECT_THROW((void)parse_fz(s.bytes), FormatError);
}

TEST_F(FzCorpusTest, EmptyStreamWithTrailingPayload) {
  // Hand-built zero-chunk stream (fz_compress always emits >= 1 chunk): any
  // payload byte after the header is unreachable and must be rejected.
  FzHeader h;
  h.num_elements = 0;
  h.block_len = 32;
  h.num_chunks = 0;
  h.error_bound = 1e-4;
  std::vector<uint8_t> bytes(sizeof h + 1, 0x5A);
  std::memcpy(bytes.data(), &h, sizeof h);
  EXPECT_THROW((void)parse_fz(bytes), FormatError);
}

TEST_F(FzCorpusTest, ChecksumFlagWithoutTrailer) {
  auto sealed = add_checksum(stream_);
  sealed.bytes.resize(sizeof(FzHeader) + 2);  // flag survives, trailer gone
  EXPECT_THROW((void)parse_fz(sealed.bytes), FormatError);
}

TEST_F(FzCorpusTest, CorruptChecksumTrailer) {
  auto sealed = add_checksum(stream_);
  sealed.bytes.back() ^= 0x01;
  EXPECT_THROW((void)parse_fz(sealed.bytes), FormatError);
}

TEST_F(FzCorpusTest, ChecksumDetectsPayloadBitFlip) {
  auto sealed = add_checksum(stream_);
  sealed.bytes[sealed.bytes.size() / 2] ^= 0x40;
  EXPECT_THROW((void)parse_fz(sealed.bytes), FormatError);
}

TEST_F(FzCorpusTest, OversizedCodeLengthInPayload) {
  const FzView v = parse_fz(stream_.bytes);
  const size_t payload_at = static_cast<size_t>(v.payload.data() - stream_.bytes.data());
  stream_.bytes[payload_at] = 0xFE;  // code length 254 > kMaxCodeLength
  std::vector<float> out(1000);
  EXPECT_THROW(fz_decompress(parse_fz(stream_.bytes), out, 1), FormatError);
}

TEST_F(FzCorpusTest, TruncatedPayloadFailsDecode) {
  // Keep enough bytes that the one-byte-per-block floor passes, but cut the
  // final block's body; the block decoder must hit its end guard.
  stream_.bytes.pop_back();
  std::vector<float> out(1000);
  EXPECT_THROW(fz_decompress(parse_fz(stream_.bytes), out, 1), FormatError);
}

TEST_F(FzCorpusTest, ChunkPayloadIndexOutOfRange) {
  const FzView v = parse_fz(stream_.bytes);
  EXPECT_THROW(v.chunk_payload(v.num_chunks()), ParseError);
}

// ---------------------------------------------------------------------------
// ompSZp corpus

class SzpCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SzpParams params;
    params.num_threads = 1;
    data_ = ramp(1000);
    // Zero a block so the corpus covers omitted (0xFF) metadata too.
    for (size_t i = 96; i < 128; ++i) data_[i] = 0.0f;
    stream_ = szp_compress(data_, params);
  }

  size_t meta_at() const { return sizeof(FzHeader); }
  size_t payload_at() const { return sizeof(FzHeader) + header_of(stream_.bytes).num_chunks; }

  std::vector<float> data_;
  CompressedBuffer stream_;
};

TEST_F(SzpCorpusTest, ValidStreamRoundTrips) {
  const auto out = szp_decompress(stream_, 1);
  ASSERT_EQ(out.size(), data_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], data_[i], 1e-4) << "at " << i;
  }
}

TEST_F(SzpCorpusTest, EmptyBuffer) { EXPECT_THROW((void)parse_szp({}), ParseError); }

TEST_F(SzpCorpusTest, TruncatedHeader) {
  stream_.bytes.resize(sizeof(FzHeader) / 2);
  EXPECT_THROW((void)parse_szp(stream_.bytes), ParseError);
}

TEST_F(SzpCorpusTest, WrongFamilyMagic) {
  auto s = with_header(stream_, [](FzHeader& h) { h.magic = kFzMagic; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, UnsupportedVersion) {
  auto s = with_header(stream_, [](FzHeader& h) { h.version = 2; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, DigestFlagIsRejected) {
  // Header bit 2 (the ABFT digest table) is fZ-light only: an ompSZp header
  // that sets it is malformed, even with 16 trailing bytes to strip.
  auto s = with_header(stream_, [](FzHeader& h) { h.flags |= kFlagHasDigests; });
  s.bytes.resize(s.bytes.size() + 2 * sizeof(uint64_t), 0);
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, ZeroBlockLen) {
  auto s = with_header(stream_, [](FzHeader& h) { h.block_len = 0; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, OversizedBlockLen) {
  auto s = with_header(stream_, [](FzHeader& h) { h.block_len = 4096; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, InflatedBlockCount) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_chunks += 1; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, DeflatedBlockCount) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_chunks -= 1; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, InflatedElementCount) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_elements *= 2; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, ZeroElementsWithBlocks) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_elements = 0; });
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST_F(SzpCorpusTest, TruncatedMetadata) {
  stream_.bytes.resize(meta_at() + 5);  // inside the metadata array
  EXPECT_THROW((void)parse_szp(stream_.bytes), ParseError);
}

TEST_F(SzpCorpusTest, InvalidCodeLengthInMetadata) {
  stream_.bytes[meta_at() + 2] = 40;  // > kMaxCodeLength, not the 0xFF marker
  EXPECT_THROW((void)parse_szp(stream_.bytes), FormatError);
}

TEST_F(SzpCorpusTest, MissingPayloadByte) {
  stream_.bytes.pop_back();
  std::vector<float> out(data_.size());
  EXPECT_THROW(szp_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzpCorpusTest, ExtraPayloadByte) {
  stream_.bytes.push_back(0);
  std::vector<float> out(data_.size());
  EXPECT_THROW(szp_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzpCorpusTest, ZeroBlockMarkerFlippedToConstant) {
  // The zeroed block is omitted (0xFF).  Claiming it is a stored constant
  // block shifts every later offset by 4 bytes.
  uint8_t* meta = stream_.bytes.data() + meta_at();
  const size_t nblocks = header_of(stream_.bytes).num_chunks;
  size_t zero_block = nblocks;
  for (size_t b = 0; b < nblocks; ++b) {
    if (meta[b] == kSzpZeroBlock) { zero_block = b; break; }
  }
  ASSERT_LT(zero_block, nblocks) << "fixture must contain an omitted block";
  meta[zero_block] = 0;
  std::vector<float> out(data_.size());
  EXPECT_THROW(szp_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzpCorpusTest, PayloadCodeLengthDisagreesWithMetadata) {
  // Block 0 is kept: its payload is [i32 outlier][u8 code_len]... — flipping
  // the embedded code length must be caught against the metadata byte.
  uint8_t* code = stream_.bytes.data() + payload_at() + sizeof(int32_t);
  *code = static_cast<uint8_t>(*code == 1 ? 2 : 1);
  std::vector<float> out(data_.size());
  EXPECT_THROW(szp_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzpCorpusTest, OutputSizeMismatch) {
  std::vector<float> out(data_.size() - 1);
  EXPECT_THROW(szp_decompress(stream_, out, 1), Error);
}

TEST_F(SzpCorpusTest, AllMetadataOmittedWithNonemptyPayload) {
  const size_t nblocks = header_of(stream_.bytes).num_chunks;
  std::memset(stream_.bytes.data() + meta_at(), kSzpZeroBlock, nblocks);
  std::vector<float> out(data_.size());
  EXPECT_THROW(szp_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzpCorpusTest, EmptyInputCompresses) {
  const CompressedBuffer empty = szp_compress({}, SzpParams{});
  EXPECT_EQ(parse_szp(empty.bytes).num_elements(), 0u);
  EXPECT_TRUE(szp_decompress(empty, 1).empty());
}

// ---------------------------------------------------------------------------
// SZx-like corpus

class SzxCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SzxParams params;
    params.num_threads = 1;
    data_ = ramp(1000);
    // A genuinely constant block exercises the midrange path.
    for (size_t i = 64; i < 96; ++i) data_[i] = 2.5f;
    stream_ = szx_compress(data_, params);
  }

  size_t meta_at() const { return sizeof(FzHeader); }

  std::vector<float> data_;
  CompressedBuffer stream_;
};

TEST_F(SzxCorpusTest, ValidStreamRoundTrips) {
  const auto out = szx_decompress(stream_, 1);
  ASSERT_EQ(out.size(), data_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], data_[i], 1e-4) << "at " << i;
  }
}

TEST_F(SzxCorpusTest, EmptyBuffer) { EXPECT_THROW((void)parse_szx({}), ParseError); }

TEST_F(SzxCorpusTest, TruncatedHeader) {
  stream_.bytes.resize(7);
  EXPECT_THROW((void)parse_szx(stream_.bytes), ParseError);
}

TEST_F(SzxCorpusTest, WrongFamilyMagic) {
  auto s = with_header(stream_, [](FzHeader& h) { h.magic = kSzpMagic; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, UnsupportedVersion) {
  auto s = with_header(stream_, [](FzHeader& h) { h.version = 0; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, DigestFlagIsRejected) {
  // Header bit 2 (the ABFT digest table) is fZ-light only: an SZx header
  // that sets it is malformed, even with 16 trailing bytes to strip.
  auto s = with_header(stream_, [](FzHeader& h) { h.flags |= kFlagHasDigests; });
  s.bytes.resize(s.bytes.size() + 2 * sizeof(uint64_t), 0);
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, ZeroBlockLen) {
  auto s = with_header(stream_, [](FzHeader& h) { h.block_len = 0; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, OversizedBlockLen) {
  auto s = with_header(stream_, [](FzHeader& h) { h.block_len = kMaxWireBlockLen * 2; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, InflatedBlockCount) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_chunks = 1u << 30; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, DeflatedBlockCount) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_chunks /= 2; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, InflatedElementCount) {
  auto s = with_header(stream_, [](FzHeader& h) { h.num_elements += 1000; });
  EXPECT_THROW((void)parse_szx(s.bytes), FormatError);
}

TEST_F(SzxCorpusTest, TruncatedMetadata) {
  stream_.bytes.resize(meta_at() + 3);
  EXPECT_THROW((void)parse_szx(stream_.bytes), ParseError);
}

TEST_F(SzxCorpusTest, InvalidKeptByteCount) {
  stream_.bytes[meta_at() + 1] = 7;  // kept bytes must be 0 or 2..4
  EXPECT_THROW((void)parse_szx(stream_.bytes), FormatError);
}

TEST_F(SzxCorpusTest, OneKeptByteIsInvalid) {
  stream_.bytes[meta_at() + 1] = 1;
  EXPECT_THROW((void)parse_szx(stream_.bytes), FormatError);
}

TEST_F(SzxCorpusTest, MissingPayloadByte) {
  stream_.bytes.pop_back();
  std::vector<float> out(data_.size());
  EXPECT_THROW(szx_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzxCorpusTest, ExtraPayloadByte) {
  stream_.bytes.push_back(0);
  std::vector<float> out(data_.size());
  EXPECT_THROW(szx_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzxCorpusTest, ConstantMarkerFlippedToKept) {
  // Claiming the constant block keeps 4 bytes/element inflates the expected
  // payload far past the stored one.
  uint8_t* meta = stream_.bytes.data() + meta_at();
  const size_t nblocks = header_of(stream_.bytes).num_chunks;
  size_t constant_block = nblocks;
  for (size_t b = 0; b < nblocks; ++b) {
    if (meta[b] == 0) { constant_block = b; break; }
  }
  ASSERT_LT(constant_block, nblocks) << "fixture must contain a constant block";
  meta[constant_block] = 4;
  std::vector<float> out(data_.size());
  EXPECT_THROW(szx_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzxCorpusTest, KeptFlippedToConstantShrinksPayload) {
  uint8_t* meta = stream_.bytes.data() + meta_at();
  const size_t nblocks = header_of(stream_.bytes).num_chunks;
  size_t kept_block = nblocks;
  for (size_t b = 0; b < nblocks; ++b) {
    if (meta[b] >= 2) { kept_block = b; break; }
  }
  ASSERT_LT(kept_block, nblocks) << "fixture must contain a kept block";
  meta[kept_block] = 0;
  std::vector<float> out(data_.size());
  EXPECT_THROW(szx_decompress(stream_, out, 1), FormatError);
}

TEST_F(SzxCorpusTest, OutputSizeMismatch) {
  std::vector<float> out(data_.size() + 1);
  EXPECT_THROW(szx_decompress(stream_, out, 1), Error);
}

TEST_F(SzxCorpusTest, EmptyInputCompresses) {
  const CompressedBuffer empty = szx_compress({}, SzxParams{});
  EXPECT_EQ(parse_szx(empty.bytes).num_elements(), 0u);
  EXPECT_TRUE(szx_decompress(empty, 1).empty());
}

}  // namespace
}  // namespace hzccl
