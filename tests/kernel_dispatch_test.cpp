// Dispatch-mechanics tier (ctest -L kernels): level parsing, env forcing,
// graceful fallback, table completeness, and per-level zero-allocation
// steady state (pool_test.cpp's pattern, swept across dispatch levels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_ops.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/cpu.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/pool.hpp"

namespace hzccl {
namespace {

using kernels::DispatchLevel;

struct LevelGuard {
  DispatchLevel prev = kernels::active_dispatch_level();
  ~LevelGuard() { kernels::set_dispatch_level(prev); }
};

/// Set/unset HZCCL_KERNEL_LEVEL for one scope, restoring the prior value.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    const char* old = std::getenv("HZCCL_KERNEL_LEVEL");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      setenv("HZCCL_KERNEL_LEVEL", value, 1);
    } else {
      unsetenv("HZCCL_KERNEL_LEVEL");
    }
  }
  ~EnvGuard() {
    if (had_value_) {
      setenv("HZCCL_KERNEL_LEVEL", saved_.c_str(), 1);
    } else {
      unsetenv("HZCCL_KERNEL_LEVEL");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

TEST(KernelDispatch, LevelNamesRoundTrip) {
  for (int lvl = 0; lvl < kernels::kNumDispatchLevels; ++lvl) {
    const auto level = static_cast<DispatchLevel>(lvl);
    const auto parsed = kernels::parse_level(kernels::level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_EQ(kernels::parse_level("AVX2"), DispatchLevel::kAvx2);
  EXPECT_EQ(kernels::parse_level("Scalar"), DispatchLevel::kScalar);
  EXPECT_EQ(kernels::parse_level("AVX512"), DispatchLevel::kAvx512);
  EXPECT_EQ(kernels::parse_level(""), std::nullopt);
  EXPECT_EQ(kernels::parse_level("avx1024"), std::nullopt);
  EXPECT_EQ(kernels::parse_level("sse"), std::nullopt);
}

TEST(KernelDispatch, ScalarIsAlwaysCompiledAndSupported) {
  EXPECT_TRUE(kernels::level_compiled(DispatchLevel::kScalar));
  EXPECT_TRUE(kernels::level_supported(DispatchLevel::kScalar));
  const auto levels = kernels::supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), DispatchLevel::kScalar);
  EXPECT_EQ(levels.back(), kernels::best_supported_level());
}

TEST(KernelDispatch, SupportImpliesCpuProbe) {
  if (kernels::level_supported(DispatchLevel::kAvx2)) {
    EXPECT_TRUE(cpu_supports_avx2());
  }
  if (kernels::level_supported(DispatchLevel::kAvx512)) {
    EXPECT_TRUE(cpu_supports_avx2());
    EXPECT_TRUE(cpu_supports_avx512());
  }
}

TEST(KernelDispatch, SupportedTablesAreFullyPopulated) {
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const kernels::KernelTable& t = kernels::table(lvl);
    EXPECT_EQ(t.level, lvl);
    EXPECT_NE(t.fz_quantize_predict, nullptr);
    EXPECT_NE(t.szx_scan, nullptr);
    EXPECT_NE(t.crc32c, nullptr);
    EXPECT_NE(t.decode_block, nullptr);
    EXPECT_NE(t.encode_block, nullptr);
    EXPECT_NE(t.decompress_chunk, nullptr);
    EXPECT_NE(t.fold_chunk, nullptr);
    EXPECT_NE(t.combine_chunk, nullptr);
  }
}

TEST(KernelDispatch, UnsupportedLevelTableThrows) {
  for (int lvl = 0; lvl < kernels::kNumDispatchLevels; ++lvl) {
    const auto level = static_cast<DispatchLevel>(lvl);
    if (kernels::level_supported(level)) continue;
    EXPECT_THROW(kernels::table(level), Error) << kernels::level_name(level);
  }
}

TEST(KernelDispatch, SetLevelActivatesAndClampsGracefully) {
  LevelGuard guard;
  EXPECT_EQ(kernels::set_dispatch_level(DispatchLevel::kScalar), DispatchLevel::kScalar);
  EXPECT_EQ(kernels::active_dispatch_level(), DispatchLevel::kScalar);
  EXPECT_EQ(kernels::active().level, DispatchLevel::kScalar);

  // Requesting the top level never fails: it activates the best supported
  // level at or below the request.
  const DispatchLevel got = kernels::set_dispatch_level(DispatchLevel::kAvx512);
  EXPECT_EQ(got, kernels::best_supported_level());
  EXPECT_EQ(kernels::active_dispatch_level(), got);
  EXPECT_TRUE(kernels::level_supported(got));
}

TEST(KernelDispatch, SwapCounterAdvancesOnActivation) {
  LevelGuard guard;
  const uint64_t before = kernels::dispatch_swaps();
  kernels::set_dispatch_level(DispatchLevel::kScalar);
  kernels::set_dispatch_level(kernels::best_supported_level());
  EXPECT_GE(kernels::dispatch_swaps(), before + 2);
}

TEST(KernelDispatch, EnvForcingSelectsLevel) {
  LevelGuard guard;
  {
    EnvGuard env("scalar");
    EXPECT_EQ(kernels::reload_from_env(), DispatchLevel::kScalar);
    EXPECT_EQ(kernels::active_dispatch_level(), DispatchLevel::kScalar);
  }
  for (DispatchLevel lvl : kernels::supported_levels()) {
    EnvGuard env(kernels::level_name(lvl));
    EXPECT_EQ(kernels::reload_from_env(), lvl);
  }
}

TEST(KernelDispatch, EnvForcingFallsBackGracefully) {
  LevelGuard guard;
  {
    // A level the host may not support clamps downward instead of failing.
    EnvGuard env("avx512");
    const DispatchLevel got = kernels::reload_from_env();
    EXPECT_TRUE(kernels::level_supported(got));
    EXPECT_LE(static_cast<int>(got), static_cast<int>(DispatchLevel::kAvx512));
  }
  {
    // Unrecognized values warn and fall back to the best supported level.
    EnvGuard env("pentium-mmx");
    EXPECT_EQ(kernels::reload_from_env(), kernels::best_supported_level());
  }
  {
    // Unset env resolves to the best supported level.
    EnvGuard env(nullptr);
    EXPECT_EQ(kernels::reload_from_env(), kernels::best_supported_level());
  }
}

TEST(KernelDispatch, CheckedEntryPointsRejectBadWidths) {
  // The block slots trust their code length and block length; the
  // fixed_len entry points in front of them reject a width past the layout
  // or a block past kMaxBlockValues before any slot runs.
  const size_t too_long = kernels::kMaxBlockValues + 1;
  std::vector<uint32_t> mags(too_long, 0), signs(too_long, 0);
  std::vector<int32_t> residuals(too_long, 0);
  std::vector<uint8_t> bytes(max_encoded_block_size(too_long), 0);
  const uint8_t* end = bytes.data() + bytes.size();
  EXPECT_THROW(encode_block_prepared(mags.data(), signs.data(), 8, kMaxCodeLength + 1,
                                     bytes.data(), end),
               Error);
  EXPECT_THROW(encode_block_prepared(mags.data(), signs.data(), too_long, 1, bytes.data(), end),
               Error);
  bytes[0] = kMaxCodeLength + 1;
  EXPECT_THROW(decode_block(bytes.data(), end, 8, residuals.data()), FormatError);
  bytes[0] = 1;
  EXPECT_THROW(decode_block(bytes.data(), end, too_long, residuals.data()), FormatError);

  // The chunk slots make the same checks on every block of a chunk and
  // report the first fault as a status, at every level alike; the walkers
  // turn it into the exception (type and message) that peek_block_size,
  // decode_block or decode_raw_block raise for the same block.  Each case
  // is one chunk of 4 blocks of 8 values.
  constexpr uint32_t kLen = 8;
  constexpr size_t kCount = 4 * kLen;
  const std::vector<uint8_t> residual{3, 0x0F, 0x12, 0x34, 0x56};  // c = 3: 1 + 1 + 3 bytes
  std::vector<uint8_t> raw(1 + 4 * kLen, 0);
  raw[0] = static_cast<uint8_t>(kRawBlockMarker);
  const auto chain = [&](std::initializer_list<std::vector<uint8_t>> blocks) {
    std::vector<uint8_t> out;
    for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  const std::vector<uint8_t> c0{0};
  const std::vector<uint8_t> good = chain({residual, c0, residual, c0});
  using kernels::ChunkStatus;
  struct BadChunk {
    const char* what;
    std::vector<uint8_t> bytes;
    ChunkStatus status;
    const char* decompress;  ///< fz_decompress's message
    const char* verify;      ///< fz_verify_digests'
    const char* combine;     ///< hz_add's and hz_sub's, against `good`, and hz_negate's
  };
  std::vector<uint8_t> truncated = chain({residual, c0, residual, residual});
  truncated.pop_back();
  std::vector<uint8_t> raw_cut = chain({residual, c0, c0, raw});
  raw_cut.pop_back();
  const BadChunk bad_chunks[] = {
      {"code length 32", chain({residual, {32}, residual, c0}), ChunkStatus::kBadCodeLength,
       "decode_block: bad code length", "decode_block: bad code length",
       "peek_block_size: bad code length"},
      {"code length 254", chain({residual, c0, residual, {254}}), ChunkStatus::kBadCodeLength,
       "decode_block: bad code length", "decode_block: bad code length",
       "peek_block_size: bad code length"},
      {"truncated residual block", truncated, ChunkStatus::kTruncatedBlock,
       "decode_block: truncated block payload", "decode_block: truncated block payload",
       "peek_block_size: truncated block"},
      {"truncated raw block", raw_cut, ChunkStatus::kTruncatedRaw,
       "decode_raw_block: truncated raw payload", "peek_block_size: truncated block",
       "peek_block_size: truncated block"},
      {"missing last block", chain({residual, residual, residual}), ChunkStatus::kEmptyBlock,
       "decode_block: empty input", "decode_block: empty input", "peek_block_size: empty input"},
  };
  const auto trailing = chain({residual, c0, residual, c0, c0});

  for (DispatchLevel lvl : kernels::supported_levels()) {
    const kernels::KernelTable& t = kernels::table(lvl);
    SCOPED_TRACE(kernels::level_name(lvl));
    std::vector<float> floats(kCount);
    uint64_t sum = 0;
    uint64_t wsum = 0;
    std::vector<uint8_t> out(4 * max_encoded_block_size(kLen));
    const auto decompress = [&](const std::vector<uint8_t>& c) {
      return t.decompress_chunk(c.data(), c.size(), kCount, kLen, 5, 2e-3, floats.data());
    };
    const auto fold = [&](const std::vector<uint8_t>& c) {
      return t.fold_chunk(c.data(), c.size(), kCount, kLen, 5, &sum, &wsum);
    };
    const auto combine = [&](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b,
                             int sign, size_t capacity) {
      return t.combine_chunk(a.data(), a.size(), b.data(), b.size(), kCount, kLen, sign,
                             out.data(), capacity);
    };
    EXPECT_EQ(decompress(good), ChunkStatus::kOk);
    EXPECT_EQ(fold(good), ChunkStatus::kOk);
    for (const BadChunk& bad : bad_chunks) {
      SCOPED_TRACE(bad.what);
      EXPECT_EQ(decompress(bad.bytes), bad.status);
      EXPECT_EQ(fold(bad.bytes), bad.status);
      for (const int sign : {+1, -1}) {
        EXPECT_EQ(combine(bad.bytes, good, sign, out.size()).status, bad.status);
        EXPECT_EQ(combine(good, bad.bytes, sign, out.size()).status, bad.status);
      }
    }
    EXPECT_EQ(decompress(trailing), ChunkStatus::kTrailingBytes);
    EXPECT_EQ(fold(trailing), ChunkStatus::kTrailingBytes);
    EXPECT_EQ(combine(good, trailing, +1, out.size()).status, ChunkStatus::kTrailingBytes);
    // A raw block meeting a residual block in pipeline 4.
    const auto raw_pair = chain({residual, c0, raw, c0});
    EXPECT_EQ(combine(good, raw_pair, +1, out.size()).status, ChunkStatus::kRawInMerge);
    EXPECT_EQ(combine(raw_pair, good, -1, out.size()).status, ChunkStatus::kRawInMerge);
    // Output capacity one byte short of the last block, in each pipeline.
    const auto constant = chain({c0, c0, c0, c0});
    const auto p3_last = chain({residual, c0, residual, residual});
    const auto p4_pair = chain({c0, c0, c0, residual});
    const struct {
      const std::vector<uint8_t>& a;
      const std::vector<uint8_t>& b;
      int sign;
      ChunkStatus status;
    } short_cases[] = {
        {constant, constant, +1, ChunkStatus::kCopyCapacity},
        {constant, p3_last, +1, ChunkStatus::kCopyCapacity},
        {constant, p3_last, -1, ChunkStatus::kNegateCapacity},
        {p3_last, constant, -1, ChunkStatus::kCopyCapacity},
        {p3_last, p4_pair, +1, ChunkStatus::kEncodeCapacity},
    };
    for (const auto& c : short_cases) {
      const kernels::CombineChunkResult full = combine(c.a, c.b, c.sign, out.size());
      ASSERT_EQ(full.status, ChunkStatus::kOk);
      const kernels::CombineChunkResult cut = combine(c.a, c.b, c.sign, full.bytes - 1);
      EXPECT_EQ(cut.status, c.status);
      EXPECT_EQ(cut.blocks(), 3u);
    }
  }

  // The walkers, through the public entry points, on one-chunk streams.
  const auto stream = [&](const std::vector<uint8_t>& payload) {
    FzHeader h;
    h.num_elements = kCount;
    h.block_len = kLen;
    h.num_chunks = 1;
    h.error_bound = 1e-3;
    h.flags = kFlagHasDigests;
    std::vector<uint8_t> wire(fz_preamble_size(1, h.flags), 0);
    std::memcpy(wire.data(), &h, sizeof h);
    wire.insert(wire.end(), payload.begin(), payload.end());
    return CompressedBuffer{wire};
  };
  // The exact exception type (a ParseError is also a FormatError) and message.
  const auto expect_raise = [](auto&& run, bool parse, const std::string& message) {
    try {
      run();
      ADD_FAILURE() << "no exception, expected: " << message;
    } catch (const FormatError& e) {
      EXPECT_EQ(dynamic_cast<const ParseError*>(&e) != nullptr, parse) << e.what();
      EXPECT_EQ(std::string(e.what()), message);
    } catch (const Error& e) {
      ADD_FAILURE() << "not a FormatError: " << e.what();
    }
  };
  const CompressedBuffer good_stream = stream(good);
  for (const BadChunk& bad : bad_chunks) {
    SCOPED_TRACE(bad.what);
    const CompressedBuffer s = stream(bad.bytes);
    expect_raise([&] { (void)fz_decompress(s); }, true, bad.decompress);
    expect_raise([&] { (void)fz_verify_digests(s); }, true, bad.verify);
    expect_raise([&] { (void)hz_add(s, good_stream); }, true, bad.combine);
    expect_raise([&] { (void)hz_sub(good_stream, s); }, true, bad.combine);
    expect_raise([&] { (void)hz_negate(s); }, true, bad.combine);
  }
  const CompressedBuffer trailing_stream = stream(trailing);
  expect_raise([&] { (void)fz_decompress(trailing_stream); }, false,
               "fz_decompress: trailing bytes in chunk payload");
  expect_raise([&] { (void)fz_verify_digests(trailing_stream); }, false,
               "fz_verify_digests: trailing bytes in chunk payload");
  expect_raise([&] { (void)hz_add(good_stream, trailing_stream); }, false,
               "hz combine: chunk payload longer than its block grid");
  expect_raise([&] { (void)hz_negate(trailing_stream); }, false,
               "hz combine: chunk payload longer than its block grid");
  expect_raise([&] { (void)hz_add(good_stream, stream(chain({residual, c0, raw, c0}))); }, true,
               "decode_block: raw block in a residual-only context");
  // Two residuals of magnitude 2^30 + 2^29 (c = 31) sum past 2^31 - 1.
  std::vector<int32_t> big(kLen, 0);
  big[3] = (1 << 30) + (1 << 29);
  std::vector<uint8_t> big_block(encoded_block_size(31, kLen));
  encode_block(big.data(), kLen, big_block.data(), big_block.data() + big_block.size());
  const CompressedBuffer big_stream = stream(chain({c0, big_block, c0, c0}));
  try {
    (void)hz_add(big_stream, big_stream);
    ADD_FAILURE() << "no overflow raised";
  } catch (const HomomorphicOverflowError& e) {
    EXPECT_EQ(std::string(e.what()), "residual sum overflows the 31-bit magnitude domain");
  }
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state per dispatch level: the vectorized kernels
// must not change the pooled hot path's allocation behavior.
// ---------------------------------------------------------------------------

class KernelLevelAllocTest : public ::testing::Test {
 protected:
  void run_steady_state(DispatchLevel lvl) {
    LevelGuard guard;
    kernels::set_dispatch_level(lvl);
    const std::vector<float> f0 = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
    const std::vector<float> f1 = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 1);
    FzParams p;
    p.abs_error_bound = abs_bound_from_rel(f0, 1e-3);

    BufferPool pool;
    // Warm the pool (first calls may mint buffers), then demand a
    // zero-allocation steady state for compress and homomorphic add.
    CompressedBuffer a = fz_compress(f0, p, &pool);
    CompressedBuffer b = fz_compress(f1, p, &pool);
    for (int i = 0; i < 3; ++i) {
      CompressedBuffer c = hz_add(a, b, nullptr, 0, &pool);
      pool.release(std::move(c.bytes));
      CompressedBuffer a2 = fz_compress(f0, p, &pool);
      pool.release(std::move(a2.bytes));
    }
    const uint64_t before = pool_heap_allocations();
    for (int i = 0; i < 50; ++i) {
      CompressedBuffer c = hz_add(a, b, nullptr, 0, &pool);
      pool.release(std::move(c.bytes));
      CompressedBuffer a2 = fz_compress(f0, p, &pool);
      pool.release(std::move(a2.bytes));
    }
    EXPECT_EQ(pool_heap_allocations(), before)
        << "steady state allocated at level " << kernels::level_name(lvl);
  }
};

TEST_F(KernelLevelAllocTest, WarmPathMintsNoHeapBlocksAtAnyLevel) {
  for (DispatchLevel lvl : kernels::supported_levels()) {
    SCOPED_TRACE(kernels::level_name(lvl));
    run_steady_state(lvl);
  }
}

}  // namespace
}  // namespace hzccl
