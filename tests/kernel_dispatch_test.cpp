// Dispatch-mechanics tier (ctest -L kernels): level parsing, env forcing,
// graceful fallback, table completeness, and per-level zero-allocation
// steady state (pool_test.cpp's pattern, swept across dispatch levels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
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
    EXPECT_NE(t.decode_dequantize, nullptr);
    EXPECT_NE(t.decode_fold, nullptr);
    EXPECT_NE(t.decode_combine, nullptr);
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

  // The fused decodes make the same checks: a raw marker, code length 32, a
  // truncated payload and n = 513 are rejected before any slot runs, so no
  // output is written.
  const size_t n = 8;
  std::vector<uint8_t> good(max_encoded_block_size(too_long), 0);
  good[0] = kMaxCodeLength;
  const uint8_t* good_end = good.data() + good.size();
  struct BadBlock {
    const char* what;
    uint8_t code;
    size_t n;
    size_t size;
  };
  const BadBlock bad_blocks[] = {
      {"raw marker", static_cast<uint8_t>(kRawBlockMarker), n, max_encoded_block_size(n)},
      {"code length 32", kMaxCodeLength + 1, n, max_encoded_block_size(n)},
      {"truncated payload", kMaxCodeLength, n, max_encoded_block_size(n) - 1},
      {"n = 513", 1, too_long, encoded_block_size(1, too_long)},
  };
  constexpr float kUntouched = -1.5f;
  for (const BadBlock& bad : bad_blocks) {
    SCOPED_TRACE(bad.what);
    std::vector<uint8_t> block(bad.size, 0);
    block[0] = bad.code;
    const uint8_t* block_end = block.data() + block.size();
    std::vector<float> out(too_long, kUntouched);
    int64_t q = 7;
    uint64_t sum = 3;
    uint64_t wsum = 5;
    EXPECT_THROW(decode_block_dequantize(block.data(), block_end, bad.n, 2e-3, &q, out.data()),
                 FormatError);
    EXPECT_THROW(decode_block_fold(block.data(), block_end, bad.n, 1, &q, &sum, &wsum),
                 FormatError);
    EXPECT_THROW(decode_blocks_combine(block.data(), block_end, good.data(), good_end, bad.n, +1,
                                       mags.data(), signs.data()),
                 FormatError);
    EXPECT_THROW(decode_blocks_combine(good.data(), good_end, block.data(), block_end, bad.n, -1,
                                       mags.data(), signs.data()),
                 FormatError);
    EXPECT_EQ(q, 7);
    EXPECT_EQ(sum, 3u);
    EXPECT_EQ(wsum, 5u);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](float v) { return v == kUntouched; }));
    EXPECT_TRUE(std::all_of(mags.begin(), mags.end(), [](uint32_t v) { return v == 0; }));
    EXPECT_TRUE(std::all_of(signs.begin(), signs.end(), [](uint32_t v) { return v == 0; }));
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
