// Unit tests for the util foundation: chunk partitioning, deterministic
// PRNG, scoped threading.
#include <gtest/gtest.h>

#include <omp.h>

#include "hzccl/util/random.hpp"
#include "hzccl/util/threading.hpp"
#include "hzccl/util/timer.hpp"

namespace hzccl {
namespace {

// --- chunk partition arithmetic -------------------------------------------

TEST(ChunkRange, CoversAllElementsExactlyOnce) {
  for (size_t total : {0ul, 1ul, 7ul, 100ul, 1000ul, 12345ul}) {
    for (int n : {1, 2, 3, 7, 16, 37}) {
      size_t covered = 0;
      size_t prev_end = 0;
      for (int i = 0; i < n; ++i) {
        const Range r = chunk_range(total, n, i);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ChunkRange, RemainderGoesToLastChunk) {
  // The paper's rule: chunk length D/N, the last D%N elements handled by the
  // (N-1)-th chunk.
  const Range last = chunk_range(103, 10, 9);
  EXPECT_EQ(last.size(), 13u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(chunk_range(103, 10, i).size(), 10u);
}

TEST(ChunkRange, MoreChunksThanElements) {
  // Chunks beyond the element count are empty except the tail rule.
  size_t total_covered = 0;
  for (int i = 0; i < 8; ++i) total_covered += chunk_range(3, 8, i).size();
  EXPECT_EQ(total_covered, 3u);
}

TEST(ScopedNumThreads, RestoresPreviousSetting) {
  const int before = omp_get_max_threads();
  {
    ScopedNumThreads scope(3);
    EXPECT_EQ(omp_get_max_threads(), 3);
    {
      ScopedNumThreads inner(1);
      EXPECT_EQ(omp_get_max_threads(), 1);
    }
    EXPECT_EQ(omp_get_max_threads(), 3);
  }
  EXPECT_EQ(omp_get_max_threads(), before);
}

TEST(ScopedNumThreads, ZeroIsNoOp) {
  const int before = omp_get_max_threads();
  ScopedNumThreads scope(0);
  EXPECT_EQ(omp_get_max_threads(), before);
}

// --- PRNG -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalHasSaneMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.seconds(), 0.0);
  (void)sink;
}

TEST(GbPerS, HandlesZeroTime) {
  EXPECT_EQ(gb_per_s(100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gb_per_s(1e9, 1.0), 1.0);
}

}  // namespace
}  // namespace hzccl
