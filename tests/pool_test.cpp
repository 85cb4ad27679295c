// Tests for the zero-allocation substrate (BufferPool / ScratchArena) and
// the differential guarantee the whole PR rests on: every pooled hot path
// produces byte-identical output to the fresh-allocation path, even when the
// pool is warm with poisoned recycled buffers and the arena scratch is
// stale.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/compressor/szx_like.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_ops.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/pool.hpp"

namespace hzccl {
namespace {

/// Make the scratch `arena` hands out next stale: take one large request,
/// fill it with kPoolPoisonByte, and rewind the cursor to its start.  The
/// caller's enclosing scope restores the cursor it had before.
void scribble_arena(ScratchArena& arena, size_t bytes) {
  const std::span<uint8_t> stale = arena.alloc_for_overwrite<uint8_t>(bytes);
  std::memset(stale.data(), kPoolPoisonByte, stale.size());
  const ScratchArena::Marker end = arena.mark();
  arena.rewind({end.block, end.offset - stale.size()});
}

// ---------------------------------------------------------------------------
// BufferPool mechanics
// ---------------------------------------------------------------------------

TEST(BufferPool, AcquireMeetsRequestedCapacity) {
  BufferPool pool;
  for (size_t want : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{4096},
                      size_t{100000}}) {
    std::vector<uint8_t> buf = pool.acquire(want);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), want) << "requested " << want;
  }
}

TEST(BufferPool, ReleaseThenAcquireReusesTheSameStorage) {
  BufferPool pool;
  std::vector<uint8_t> buf = pool.acquire(1000);
  buf.resize(1000);
  const uint8_t* const storage = buf.data();
  pool.release(std::move(buf));

  std::vector<uint8_t> again = pool.acquire(1000);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.stats().fresh_allocations, 1u);
}

TEST(BufferPool, StatsCountAcquiresReleasesAndResidency) {
  BufferPool pool;
  std::vector<uint8_t> a = pool.acquire(100);
  std::vector<uint8_t> b = pool.acquire(5000);
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().fresh_allocations, 2u);
  EXPECT_EQ(pool.stats().resident_bytes, 0u);

  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().releases, 2u);
  EXPECT_GT(pool.stats().resident_bytes, 0u);

  pool.trim();
  EXPECT_EQ(pool.stats().resident_bytes, 0u);
  // Trimmed storage is gone: the next acquire mints a fresh block.
  std::vector<uint8_t> c = pool.acquire(100);
  EXPECT_EQ(pool.stats().fresh_allocations, 3u);
}

TEST(BufferPool, SteadyStateAcquireReleaseLoopMintsNothing) {
  BufferPool pool;
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> buf = pool.acquire(1 << 12);
    buf.resize(1 << 12, static_cast<uint8_t>(i));
    pool.release(std::move(buf));
  }
  const uint64_t fresh = pool.stats().fresh_allocations;
  const uint64_t global = pool_heap_allocations();
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> buf = pool.acquire(1 << 12);
    buf.resize(1 << 12);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.stats().fresh_allocations, fresh);
  EXPECT_EQ(pool_heap_allocations(), global);
}

TEST(BufferPool, PoisonModeScribblesReleasedBytes) {
  BufferPool pool;
  pool.set_poison(true);
  std::vector<uint8_t> buf = pool.acquire(256);
  buf.resize(256, 0x11);
  // Simulate a retained view into the buffer (the use-after-release bug this
  // mode exists to catch): the storage outlives the release inside the pool.
  const uint8_t* const stale = buf.data();
  pool.release(std::move(buf));
  for (size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(stale[i], kPoolPoisonByte) << "offset " << i;
  }
}

TEST(BufferPool, LocalIsPerThreadSingleton) {
  BufferPool& a = BufferPool::local();
  BufferPool& b = BufferPool::local();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// ScratchArena mechanics
// ---------------------------------------------------------------------------

TEST(ScratchArena, AllocReturnsZeroedSpans) {
  ScratchArena arena;
  const std::span<uint64_t> s = arena.alloc<uint64_t>(100);
  ASSERT_EQ(s.size(), 100u);
  for (uint64_t v : s) ASSERT_EQ(v, 0u);
  EXPECT_TRUE(arena.alloc<int>(0).empty());
}

TEST(ScratchArena, AllocZeroesStaleScratch) {
  ScratchArena arena;
  ArenaScope outer(arena);
  scribble_arena(arena, 4096);
  const uint8_t* stale = nullptr;
  {
    // alloc_for_overwrite hands the stale bytes back as they are...
    ArenaScope scope(arena);
    const std::span<uint8_t> raw = scope.alloc_for_overwrite<uint8_t>(4096);
    for (uint8_t b : raw) ASSERT_EQ(b, kPoolPoisonByte);
    stale = raw.data();
  }
  // ...while alloc zeroes the same storage.
  const std::span<uint64_t> s = arena.alloc<uint64_t>(4096 / sizeof(uint64_t));
  EXPECT_EQ(static_cast<const void*>(s.data()), static_cast<const void*>(stale));
  for (uint64_t v : s) ASSERT_EQ(v, 0u);
}

TEST(ScratchArena, RewindRecyclesTheSameStorage) {
  ScratchArena arena;
  ScratchArena::Marker m = arena.mark();
  const std::span<uint32_t> first = arena.alloc<uint32_t>(64);
  first[0] = 42;
  arena.rewind(m);
  const std::span<uint32_t> second = arena.alloc<uint32_t>(64);
  EXPECT_EQ(second.data(), first.data());
  // Re-allocated scratch is freshly zeroed even though the storage recycled.
  EXPECT_EQ(second[0], 0u);
}

TEST(ScratchArena, NestedScopesRewindLifo) {
  ScratchArena arena;
  std::span<uint8_t> outer_span;
  {
    ArenaScope outer(arena);
    outer_span = outer.alloc<uint8_t>(100);
    const uint8_t* inner_ptr = nullptr;
    {
      ArenaScope inner(arena);
      inner_ptr = inner.alloc<uint8_t>(100).data();
      EXPECT_NE(inner_ptr, outer_span.data());
    }
    // The inner scope's storage is reclaimed, the outer allocation is not.
    ArenaScope inner2(arena);
    EXPECT_EQ(inner2.alloc<uint8_t>(100).data(), inner_ptr);
  }
}

TEST(ScratchArena, SteadyStateStopsMintingBlocks) {
  ScratchArena arena;
  for (int i = 0; i < 3; ++i) {
    ArenaScope scope(arena);
    scope.alloc<uint64_t>(1 << 12);
    scope.alloc<int32_t>(1 << 12);
  }
  const uint64_t blocks = arena.block_allocations();
  for (int i = 0; i < 100; ++i) {
    ArenaScope scope(arena);
    scope.alloc<uint64_t>(1 << 12);
    scope.alloc<int32_t>(1 << 12);
  }
  EXPECT_EQ(arena.block_allocations(), blocks);
  EXPECT_GT(arena.capacity_bytes(), 0u);
}

TEST(ScratchArena, MixedAlignmentAllocationsStayAligned) {
  ScratchArena arena;
  ArenaScope scope(arena);
  scope.alloc<uint8_t>(3);
  const std::span<uint64_t> wide = scope.alloc<uint64_t>(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide.data()) % alignof(uint64_t), 0u);
  scope.alloc<uint8_t>(1);
  const std::span<int32_t> mid = scope.alloc<int32_t>(4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mid.data()) % alignof(int32_t), 0u);
}

// ---------------------------------------------------------------------------
// Differential: pooled output == fresh output, byte for byte, on a warm
// poisoned pool and stale arena scratch.  Poison mode makes any read of
// recycled contents visible as a mismatch, and the scribbled arena does the
// same for scratch, so passing here means the pooled paths fully overwrite
// what they recycle and no stream byte depends on uninitialized scratch.
// ---------------------------------------------------------------------------

/// Larger than any op's arena scratch on the tiny fields (an assembler's
/// worst-case chunk regions are about 1.01x the input bytes).
constexpr size_t kStaleScratchBytes = size_t{4} << 20;

class PooledDifferentialTest : public ::testing::TestWithParam<DatasetId> {
 protected:
  void SetUp() override {
    pool_.set_poison(true);
    f0_ = generate_field(GetParam(), Scale::kTiny, 0);
    f1_ = generate_field(GetParam(), Scale::kTiny, 1);
    eb_ = abs_bound_from_rel(f0_, 1e-3);
  }

  /// Run `op` twice through the pool — once to warm (and poison) the free
  /// lists, once measured on scribbled arena scratch — and check the
  /// measured bytes against `fresh`.
  template <class Fn>
  void expect_identical(const CompressedBuffer& fresh, const Fn& op) {
    CompressedBuffer warm = op(&pool_);
    pool_.release(std::move(warm.bytes));
    ArenaScope stale(ScratchArena::local());
    scribble_arena(ScratchArena::local(), kStaleScratchBytes);
    CompressedBuffer pooled = op(&pool_);
    EXPECT_EQ(pooled.bytes, fresh.bytes);
    pool_.release(std::move(pooled.bytes));
  }

  BufferPool pool_;
  std::vector<float> f0_;
  std::vector<float> f1_;
  double eb_ = 0.0;
};

TEST_P(PooledDifferentialTest, FzCompress) {
  FzParams p;
  p.abs_error_bound = eb_;
  expect_identical(fz_compress(f0_, p), [&](BufferPool* pool) {
    return fz_compress(f0_, p, pool);
  });
}

TEST_P(PooledDifferentialTest, SzpCompress) {
  SzpParams p;
  p.abs_error_bound = eb_;
  expect_identical(szp_compress(f0_, p), [&](BufferPool* pool) {
    return szp_compress(f0_, p, pool);
  });
}

TEST_P(PooledDifferentialTest, SzxCompress) {
  SzxParams p;
  p.abs_error_bound = eb_;
  expect_identical(szx_compress(f0_, p), [&](BufferPool* pool) {
    return szx_compress(f0_, p, pool);
  });
}

TEST_P(PooledDifferentialTest, HzOps) {
  FzParams p;
  p.abs_error_bound = eb_;
  const CompressedBuffer a = fz_compress(f0_, p);
  const CompressedBuffer b = fz_compress(f1_, p);

  expect_identical(hz_add(a, b), [&](BufferPool* pool) {
    return hz_add(a, b, nullptr, 0, pool);
  });
  expect_identical(hz_sub(a, b), [&](BufferPool* pool) {
    return hz_sub(a, b, nullptr, 0, pool);
  });
  expect_identical(hz_scale(a, 3), [&](BufferPool* pool) {
    return hz_scale(a, 3, 0, pool);
  });
  expect_identical(hz_negate(a), [&](BufferPool* pool) {
    return hz_negate(a, 0, pool);
  });
}

TEST_P(PooledDifferentialTest, HzAddMany) {
  FzParams p;
  p.abs_error_bound = eb_;
  std::vector<CompressedBuffer> operands;
  for (uint32_t i = 0; i < 5; ++i) {
    operands.push_back(fz_compress(generate_field(GetParam(), Scale::kTiny, i), p));
  }
  expect_identical(hz_add_many(operands), [&](BufferPool* pool) {
    return hz_add_many(operands, nullptr, 0, pool);
  });
  // Single-operand path returns an owned copy, not an alias of the input.
  const std::span<const CompressedBuffer> one(operands.data(), 1);
  CompressedBuffer copy = hz_add_many(one, nullptr, 0, &pool_);
  EXPECT_EQ(copy.bytes, operands[0].bytes);
  EXPECT_NE(copy.bytes.data(), operands[0].bytes.data());
}

INSTANTIATE_TEST_SUITE_P(Datasets, PooledDifferentialTest,
                         ::testing::Values(DatasetId::kRtmSim1, DatasetId::kNyx,
                                           DatasetId::kCesmAtm),
                         [](const auto& pinfo) { return dataset_slug(pinfo.param); });

// ---------------------------------------------------------------------------
// Zero-allocation steady state: the acceptance criterion the perf-smoke job
// enforces, asserted here at unit scope so a regression fails fast.
// ---------------------------------------------------------------------------

TEST(ZeroAllocSteadyState, HzAddWarmPathMintsNoHeapBlocks) {
  const std::vector<float> f0 = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 1);
  FzParams p;
  p.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = fz_compress(f0, p);
  const CompressedBuffer b = fz_compress(f1, p);

  BufferPool pool;
  for (int i = 0; i < 3; ++i) {
    CompressedBuffer c = hz_add(a, b, nullptr, 0, &pool);
    pool.release(std::move(c.bytes));
  }
  const uint64_t before = pool_heap_allocations();
  for (int i = 0; i < 50; ++i) {
    CompressedBuffer c = hz_add(a, b, nullptr, 0, &pool);
    pool.release(std::move(c.bytes));
  }
  EXPECT_EQ(pool_heap_allocations(), before);
}

TEST(ZeroAllocSteadyState, FzCompressWarmPathMintsNoHeapBlocks) {
  const std::vector<float> f0 = generate_field(DatasetId::kCesmAtm, Scale::kTiny, 0);
  FzParams p;
  p.abs_error_bound = abs_bound_from_rel(f0, 1e-3);

  BufferPool pool;
  for (int i = 0; i < 3; ++i) {
    CompressedBuffer c = fz_compress(f0, p, &pool);
    pool.release(std::move(c.bytes));
  }
  const uint64_t before = pool_heap_allocations();
  for (int i = 0; i < 50; ++i) {
    CompressedBuffer c = fz_compress(f0, p, &pool);
    pool.release(std::move(c.bytes));
  }
  EXPECT_EQ(pool_heap_allocations(), before);
}

}  // namespace
}  // namespace hzccl
