// Kernel-conformance tier (ctest -L kernels): every registered dispatch
// level must be byte-identical to the scalar oracle.
//
// The scalar table is the reference implementation of the wire format; the
// vectorized tables are only allowed to be faster, never different.  Each
// differential here sweeps every supported level above scalar against the
// scalar table directly (no global state involved), then the dataset-level
// sweep repeats whole-pipeline compress / homomorphic-add / decompress runs
// with the *active* level forced, proving the dispatch seam leaks nothing
// into the format.
//
// Randomness comes from simmpi's counter-based fault_mix, so a failure
// reproduces from the test name alone.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/compressor/szx_like.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_ops.hpp"
#include "hzccl/integrity/digest.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/crc32.hpp"

namespace hzccl {
namespace {

using kernels::DispatchLevel;
using kernels::KernelTable;

constexpr uint8_t kGuardByte = 0xCD;

/// Pure-function PRNG view (fuzz_decoders' idiom): value i of stream s is
/// fault_mix(seed, s, i), independent of call order.
class Prng {
 public:
  Prng(uint64_t seed, uint64_t stream) : seed_(seed), stream_(stream) {}
  uint64_t next() { return simmpi::fault_mix(seed_, stream_, counter_++); }
  uint32_t u32() { return static_cast<uint32_t>(next()); }

 private:
  uint64_t seed_;
  uint64_t stream_;
  uint64_t counter_ = 0;
};

std::vector<DispatchLevel> vector_levels() {
  std::vector<DispatchLevel> out;
  for (DispatchLevel lvl : kernels::supported_levels()) {
    if (lvl != DispatchLevel::kScalar) out.push_back(lvl);
  }
  return out;
}

/// Restore the active dispatch level when a test that forces it exits.
struct LevelGuard {
  DispatchLevel prev = kernels::active_dispatch_level();
  ~LevelGuard() { kernels::set_dispatch_level(prev); }
};

// Lengths around every boundary the kernels care about: group-of-8 and
// 16-lane edges, 64-value edges, the 512-element block maximum, and bulk
// sizes with every possible short tail.
const size_t kLengths[] = {0,  1,  2,  7,  8,   9,   15,  16,  17,  31,   32,   33,  63,
                           64, 65, 66, 100, 127, 128, 129, 200, 511, 512, 1000, 4095, 4096, 4097};

// ---------------------------------------------------------------------------
// fZ fused block pass (fz_quantize_predict) differentials.  Every call's
// outputs are framed by canary lanes, and the oracle writes exactly its n
// lanes, so comparing the whole frames also proves a level writes nothing
// outside them.
// ---------------------------------------------------------------------------

constexpr size_t kSlotPad = 4;
constexpr int64_t kCanary64 = 0x5A5A5A5A5A5A5A5ALL;
constexpr uint32_t kCanaryU32 = 0x5A5A5A5Au;

/// One fz_quantize_predict call with canary-framed outputs.
struct SlotRun {
  kernels::QuantizePredictResult res;
  std::vector<int64_t> q;
  std::vector<uint32_t> mags;
  std::vector<uint32_t> signs;
};

SlotRun run_slot(const KernelTable& t, const float* data, size_t n, double inv, int32_t q_prev,
                 bool restart) {
  SlotRun run;
  run.q.assign(n + 2 * kSlotPad, kCanary64);
  run.mags.assign(n + 2 * kSlotPad, kCanaryU32);
  run.signs.assign(n + 2 * kSlotPad, kCanaryU32);
  run.res = t.fz_quantize_predict(data, n, inv, q_prev, restart, run.q.data() + kSlotPad,
                                  run.mags.data() + kSlotPad, run.signs.data() + kSlotPad);
  return run;
}

/// `vec` matches the scalar oracle on one input, outputs and guards alike.
/// Returns the oracle's run.
SlotRun expect_slot_matches_oracle(const KernelTable& vec, const float* data, size_t n,
                                   double inv, int32_t q_prev, bool restart) {
  const SlotRun want =
      run_slot(kernels::table(DispatchLevel::kScalar), data, n, inv, q_prev, restart);
  const SlotRun got = run_slot(vec, data, n, inv, q_prev, restart);
  const std::string where = std::string("level=") + kernels::level_name(vec.level) +
                            " n=" + std::to_string(n) + " inv=" + std::to_string(inv) +
                            " q_prev=" + std::to_string(q_prev) +
                            " restart=" + std::to_string(restart);
  EXPECT_EQ(got.res.raw, want.res.raw) << "raw verdict mismatch: " << where;
  EXPECT_EQ(got.res.q_guard, want.res.q_guard) << "quantize guard mismatch: " << where;
  EXPECT_EQ(got.res.max_mag, want.res.max_mag) << "predict max mismatch: " << where;
  EXPECT_EQ(got.q, want.q) << "quantized values (or their canaries) differ: " << where;
  EXPECT_EQ(got.mags, want.mags) << "magnitudes (or their canaries) differ: " << where;
  EXPECT_EQ(got.signs, want.signs) << "signs (or their canaries) differ: " << where;
  return want;
}

TEST(KernelConformance, QuantizeMatchesScalarOracle) {
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0xF10A7u, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n > 512) continue;
      std::vector<float> data(n);
      for (size_t i = 0; i < n; ++i) {
        switch (rng.u32() % 4u) {
          case 0:  // exact round-to-even boundary cases: k + 0.5 quanta
            data[i] = (static_cast<float>(static_cast<int32_t>(rng.u32() % 2000u) - 1000) + 0.5f) *
                      2e-3f;
            break;
          case 1:  // large values that overflow the quantization domain
            data[i] = (rng.u32() % 2u ? 1.0f : -1.0f) * 1e13f;
            break;
          default:  // plain finite values
            data[i] = (static_cast<float>(rng.u32() % 2000001u) - 1000000.0f) * 1e-3f;
            break;
        }
      }
      const int32_t q_prev = static_cast<int32_t>(rng.u32()) >> 2;
      for (const double inv : {500.0, 1.0 / 3e-4, 1e6}) {
        for (const bool restart : {false, true}) {
          expect_slot_matches_oracle(vec, data.data(), n, inv, q_prev, restart);
        }
      }
      if (HasFailure()) return;
    }
  }
}

TEST(KernelConformance, PredictMatchesScalarOracle) {
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0x9E0u, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n == 0 || n > 512) continue;
      const int32_t q_prev = static_cast<int32_t>(rng.u32()) >> 1;
      // Power-of-two scales keep data[i] * inv exact, so the floats quantize
      // to the in-domain targets they were made from.
      for (const double inv : {1.0, 1024.0}) {
        std::vector<float> data(n);
        for (size_t i = 0; i < n; ++i) {
          // In-domain quantized values across +-2^30 (the quantize guard
          // admits |q| < 2^30), every fourth one small.
          const uint32_t span = rng.u32() % 4u == 0 ? 2000u : 2u * kMaxQuantMagnitude;
          float target = static_cast<float>(static_cast<int64_t>(rng.u32() % (span + 1u)) -
                                            static_cast<int64_t>(span / 2));
          if (std::fabs(target) > static_cast<float>(kMaxQuantMagnitude)) {
            target = std::nextafter(target, 0.0f);  // rounded up to 2^30
          }
          data[i] = target / static_cast<float>(inv);
        }
        for (const bool restart : {false, true}) {
          const SlotRun want = expect_slot_matches_oracle(vec, data.data(), n, inv, q_prev, restart);
          ASSERT_LE(want.res.q_guard, static_cast<uint64_t>(kMaxQuantMagnitude)) << "n=" << n;
          if (restart) {
            ASSERT_EQ(want.mags[kSlotPad], 0u) << "restart must zero r[0]: n=" << n;
          }
        }
      }
      if (HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// SZx scan differential: min/max/|max| byte-identity, including the ±0 and
// denormal lanes the canonicalization contract exists for.
// ---------------------------------------------------------------------------

TEST(KernelConformance, SzxScanMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0x52C4Au, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n == 0 || n > 512) continue;
      std::vector<float> data(n);
      for (size_t i = 0; i < n; ++i) {
        switch (rng.u32() % 8u) {
          case 0: data[i] = 0.0f; break;
          case 1: data[i] = -0.0f; break;
          case 2: {  // subnormal (classify_raw_block admits up to half)
            uint32_t bits = rng.u32() & 0x007FFFFFu;
            if (bits == 0) bits = 1;
            bits |= (rng.u32() & 1u) << 31;
            std::memcpy(&data[i], &bits, sizeof bits);
            break;
          }
          default:
            data[i] = (static_cast<float>(rng.u32() % 2000001u) - 1000000.0f) * 1e-3f;
            break;
        }
      }
      float out_ref[3], out_vec[3];
      ref.szx_scan(data.data(), n, out_ref);
      vec.szx_scan(data.data(), n, out_vec);
      ASSERT_EQ(std::memcmp(out_ref, out_vec, sizeof out_ref), 0)
          << "szx scan mismatch: level=" << kernels::level_name(vec.level) << " n=" << n
          << " ref={" << out_ref[0] << "," << out_ref[1] << "," << out_ref[2] << "} vec={"
          << out_vec[0] << "," << out_vec[1] << "," << out_vec[2] << "}";
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelConformance, SzxScanCanonicalizesNegativeZero) {
  // All-(-0) and mixed-sign-zero blocks must scan to {+0, +0, +0} bitwise at
  // every level — the midrange a constant block writes must not encode which
  // lane a tied zero survived in.
  const uint32_t positive_zero = 0;
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{17}, size_t{64}}) {
      std::vector<float> all_neg(n, -0.0f);
      std::vector<float> mixed(n, 0.0f);
      for (size_t i = 0; i < n; i += 2) mixed[i] = -0.0f;
      for (const auto* block : {&all_neg, &mixed}) {
        float out[3];
        t.szx_scan(block->data(), n, out);
        for (int c = 0; c < 3; ++c) {
          uint32_t bits;
          std::memcpy(&bits, &out[c], sizeof bits);
          ASSERT_EQ(bits, positive_zero)
              << "level=" << kernels::level_name(lvl) << " n=" << n << " component=" << c;
        }
      }
    }
  }
}

/// A read-only byte copy that ends where an inaccessible page begins.
class GuardedBytes {
 public:
  explicit GuardedBytes(std::span<const uint8_t> bytes) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    map_len_ = (bytes.size() + page - 1) / page * page + page;
    void* map = mmap(nullptr, map_len_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::runtime_error("GuardedBytes: mmap failed");
    base_ = static_cast<uint8_t*>(map);
    uint8_t* const guard = base_ + map_len_ - page;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      munmap(map, map_len_);
      throw std::runtime_error("GuardedBytes: mprotect failed");
    }
    data_ = guard - bytes.size();
    std::copy(bytes.begin(), bytes.end(), data_);
  }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;
  ~GuardedBytes() { munmap(base_, map_len_); }

  const uint8_t* data() const { return data_; }

 private:
  uint8_t* base_ = nullptr;
  uint8_t* data_ = nullptr;
  size_t map_len_ = 0;
};

// ---------------------------------------------------------------------------
// CRC-32C: known answers at every level, then each table against the
// scalar oracle across the three-lane block geometry of the SSE4.2 body
// and the 256-, 64- and 16-byte fold stages of the VPCLMULQDQ body.
// ---------------------------------------------------------------------------

TEST(KernelConformance, Crc32cKnownAnswersAtEveryLevel) {
  // RFC 3720 (iSCSI) appendix B.4 vectors plus the customary "123456789"
  // check value.  Frame tests only round-trip, so a wrong polynomial or bit
  // order shared by sender and receiver would pass them; it cannot pass
  // these.  The 32-byte vectors never reach a 256-byte fold, so the last
  // answer (from an independent bitwise loop) runs 4 KiB through it.
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  std::vector<uint8_t> ramp(4096);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<uint8_t>(i & 0xFF);
  const std::vector<uint8_t> zeros(32, 0x00);
  const std::vector<uint8_t> ones(32, 0xFF);
  const std::string_view check = "123456789";
  struct Answer {
    const char* name;
    std::span<const uint8_t> data;
    uint32_t crc;
  };
  const Answer answers[] = {
      {"32 x 00", zeros, 0x8A9136AAu},
      {"32 x FF", ones, 0x62A8AB43u},
      {"00..1F", ascending, 0x46DD794Eu},
      {"1F..00", descending, 0x113FDB5Cu},
      {"123456789", {reinterpret_cast<const uint8_t*>(check.data()), check.size()}, 0xE3069283u},
      {"4096 x (i & FF)", ramp, 0x9C71FE32u},
  };
  LevelGuard guard;
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    kernels::set_dispatch_level(lvl);
    for (const Answer& a : answers) {
      EXPECT_EQ(t.crc32c(a.data.data(), a.data.size(), 0), a.crc)
          << a.name << " level=" << kernels::level_name(lvl);
      EXPECT_EQ(crc32c(a.data), a.crc)
          << a.name << " dispatched at level=" << kernels::level_name(lvl);
    }
  }
}

TEST(KernelConformance, Crc32cMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  constexpr size_t kLane = kernels::kCrc32cLaneBytes;
  // Every length through one three-lane block plus a ragged tail, then each
  // lane edge +-1 of the next two blocks.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 3 * kLane + 15; ++n) lengths.push_back(n);
  for (size_t lane = 4; lane <= 9; ++lane) {
    for (const size_t n : {lane * kLane - 1, lane * kLane, lane * kLane + 1}) {
      lengths.push_back(n);
    }
  }
  Prng fill(/*seed=*/0xC5C32Cu, /*stream=*/0);
  std::vector<uint8_t> bytes(lengths.back() + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(fill.u32());

  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0xC5C32Cu, /*stream=*/1 + static_cast<uint64_t>(lvl));
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* p = bytes.data() + offset;
      for (const size_t n : lengths) {
        // A non-zero seed is the CRC of bytes before these; chaining from
        // any cut point must land on the same value.
        const uint32_t seed = rng.u32();
        const size_t cut = static_cast<size_t>(rng.next() % (n + 1));
        const uint32_t want = ref.crc32c(p, n, seed);
        ASSERT_EQ(vec.crc32c(p, n, seed), want)
            << "level=" << kernels::level_name(lvl) << " n=" << n << " offset=" << offset;
        ASSERT_EQ(vec.crc32c(p + cut, n - cut, vec.crc32c(p, cut, seed)), want)
            << "chained: level=" << kernels::level_name(lvl) << " n=" << n
            << " offset=" << offset << " cut=" << cut;
      }
    }
  }

  // Flush against an inaccessible page, so a read past n faults: every
  // length through 1100 bytes, then each 256-, 64- and 16-byte fold
  // boundary +-1 up to 8 KiB (the 16-byte multiples cover all three).
  std::vector<size_t> guarded_lengths;
  for (size_t n = 0; n <= 1100; ++n) guarded_lengths.push_back(n);
  for (size_t edge = 1104; edge <= 8192; edge += 16) {
    for (const size_t n : {edge - 1, edge, edge + 1}) guarded_lengths.push_back(n);
  }
  const size_t guarded_max = guarded_lengths.back();
  ASSERT_LE(guarded_max, bytes.size());
  const GuardedBytes guarded(std::span<const uint8_t>(bytes).first(guarded_max));
  const uint8_t* const guarded_end = guarded.data() + guarded_max;
  // One buffer long enough for every stage's steady state, its CRC taken
  // whole and chained across three cut points.
  std::vector<uint8_t> long_bytes((size_t{1} << 20) + 13);
  for (uint8_t& b : long_bytes) b = static_cast<uint8_t>(fill.u32());
  const GuardedBytes long_guarded(long_bytes);

  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    Prng rng(/*seed=*/0xC5C32Cu, /*stream=*/16 + static_cast<uint64_t>(lvl));
    for (const size_t n : guarded_lengths) {
      const uint8_t* p = guarded_end - n;
      const uint32_t seed = rng.u32();
      ASSERT_EQ(t.crc32c(p, n, seed), ref.crc32c(p, n, seed))
          << "guarded: level=" << kernels::level_name(lvl) << " n=" << n;
    }
    const size_t n = long_bytes.size();
    const uint8_t* p = long_guarded.data();
    const uint32_t seed = rng.u32();
    const uint32_t want = ref.crc32c(p, n, seed);
    ASSERT_EQ(t.crc32c(p, n, seed), want) << "1 MiB + 13: level=" << kernels::level_name(lvl);
    size_t cuts[] = {static_cast<size_t>(rng.next() % n), static_cast<size_t>(rng.next() % n),
                     static_cast<size_t>(rng.next() % n)};
    std::sort(std::begin(cuts), std::end(cuts));
    uint32_t chained = seed;
    size_t from = 0;
    for (const size_t to : {cuts[0], cuts[1], cuts[2], n}) {
      chained = t.crc32c(p + from, to - from, chained);
      from = to;
    }
    ASSERT_EQ(chained, want) << "1 MiB + 13 chained: level=" << kernels::level_name(lvl)
                             << " cuts=" << cuts[0] << "," << cuts[1] << "," << cuts[2];
  }
}

// ---------------------------------------------------------------------------
// Whole-block codec and digest fold: each level's block slots against the
// scalar oracle at every code length.  Inputs sit flush against the end of
// their allocation (so an over-read leaves it, which the sanitized kernels
// tier reports), and outputs are framed by canaries (an over-write changes
// one).  Every case also runs once with its payload ending at an
// inaccessible page, so an over-read faults in any build.
// ---------------------------------------------------------------------------

constexpr int32_t kCanary32 = static_cast<int32_t>(0x5A5A5A5A);

std::vector<size_t> block_lengths() {
  std::vector<size_t> out;
  for (size_t n = 1; n <= 64; ++n) out.push_back(n);
  for (const size_t n : {size_t{100}, size_t{511}, size_t{512}}) out.push_back(n);
  return out;
}

size_t block_payload_size(int c, size_t n) { return encoded_block_size(c, n) - 1; }

/// Decode `payload` with `t` into a canary-framed buffer at element offset
/// `dst_off`; fails the test if a canary changed.  Returns the n values.
std::vector<int32_t> decode_framed(const KernelTable& t, const uint8_t* payload, size_t n, int c,
                                   size_t dst_off) {
  std::vector<int32_t> out(dst_off + n + 8, kCanary32);
  t.decode_block(payload, n, c, out.data() + dst_off);
  for (size_t i = 0; i < out.size(); ++i) {
    if (i >= dst_off && i < dst_off + n) continue;
    EXPECT_EQ(out[i], kCanary32) << "decode_block wrote outside its n values: level="
                                 << kernels::level_name(t.level) << " c=" << c << " n=" << n
                                 << " at element " << i;
  }
  return {out.begin() + static_cast<ptrdiff_t>(dst_off),
          out.begin() + static_cast<ptrdiff_t>(dst_off + n)};
}

TEST(KernelConformance, DecodeBlockMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0xDEC0DEu, /*stream=*/static_cast<uint64_t>(lvl));
    for (int c = 1; c <= kMaxCodeLength; ++c) {
      for (const size_t n : block_lengths()) {
        const size_t size = block_payload_size(c, n);
        // Random bytes: every bit pattern is a valid payload, including set
        // padding bits past the n-th value, which every level must ignore.
        std::vector<uint8_t> payload(size);
        for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.u32());
        const std::vector<int32_t> want = decode_framed(ref, payload.data(), n, c, 0);
        for (size_t misalign = 0; misalign < 8; ++misalign) {
          // Payload flush against the end of its allocation, starting at
          // byte `misalign`.
          std::vector<uint8_t> src(misalign + size);
          std::copy(payload.begin(), payload.end(), src.begin() + static_cast<ptrdiff_t>(misalign));
          ASSERT_EQ(decode_framed(vec, src.data() + misalign, n, c, misalign), want)
              << "level=" << kernels::level_name(lvl) << " c=" << c << " n=" << n
              << " misalign=" << misalign;
        }
        const GuardedBytes guarded(payload);
        ASSERT_EQ(decode_framed(vec, guarded.data(), n, c, 0), want)
            << "guarded: level=" << kernels::level_name(lvl) << " c=" << c << " n=" << n;
        if (HasFailure()) return;
      }
    }
  }
}

TEST(KernelConformance, EncodeBlockMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0xE4C0DEu, /*stream=*/static_cast<uint64_t>(lvl));
    for (int c = 1; c <= kMaxCodeLength; ++c) {
      for (const size_t n : block_lengths()) {
        // Magnitudes carry random bits above c half the time (the encoder
        // drops them); sign words are 0/1.
        std::vector<uint32_t> mags(n);
        std::vector<uint32_t> signs(n);
        const uint32_t low = (1u << c) - 1u;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t v = rng.u32();
          mags[i] = (rng.u32() % 2u == 0) ? v : (v & low);
          signs[i] = rng.u32() & 1u;
        }
        const size_t size = block_payload_size(c, n);
        std::vector<uint8_t> want(size + 16, kGuardByte);
        ref.encode_block(mags.data(), signs.data(), n, c, want.data());
        for (size_t misalign = 0; misalign < 8; ++misalign) {
          // Inputs flush against the end of their allocations, starting at
          // element `misalign`.
          std::vector<uint32_t> m_in(misalign + n);
          std::vector<uint32_t> s_in(misalign + n);
          std::copy(mags.begin(), mags.end(), m_in.begin() + static_cast<ptrdiff_t>(misalign));
          std::copy(signs.begin(), signs.end(), s_in.begin() + static_cast<ptrdiff_t>(misalign));
          std::vector<uint8_t> out(misalign + size + 16, kGuardByte);
          vec.encode_block(m_in.data() + misalign, s_in.data() + misalign, n, c,
                           out.data() + misalign);
          for (size_t b = 0; b < misalign; ++b) {
            ASSERT_EQ(out[b], kGuardByte) << "encode_block wrote before its payload: level="
                                          << kernels::level_name(lvl) << " c=" << c
                                          << " n=" << n << " misalign=" << misalign;
          }
          ASSERT_EQ(std::vector<uint8_t>(out.begin() + static_cast<ptrdiff_t>(misalign), out.end()),
                    want)
              << "encode_block bytes (or the canaries after them) differ: level="
              << kernels::level_name(lvl) << " c=" << c << " n=" << n << " misalign=" << misalign;
        }
        // The oracle's payload decodes back to the low c bits at every level.
        const GuardedBytes guarded(std::span<const uint8_t>(want.data(), size));
        const std::vector<int32_t> back = decode_framed(vec, guarded.data(), n, c, 0);
        for (size_t i = 0; i < n; ++i) {
          const auto mag = static_cast<int32_t>(mags[i] & low);
          ASSERT_EQ(back[i], signs[i] != 0 ? -mag : mag)
              << "level=" << kernels::level_name(lvl) << " c=" << c << " n=" << n << " i=" << i;
        }
        if (HasFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The chunk slots (decompress_chunk, fold_chunk, combine_chunk): the scalar
// slot against an independent per-value model (the residuals a chunk was
// built from, prefix-summed and dequantized, folded or merged one value at
// a time), and each level against the scalar slot.  Chunks hold residual
// blocks at every code length, raw blocks and runs of constant blocks, at
// block lengths 1, 7, 32, 33, 100 and 512 with short last blocks.  Payloads
// sit flush against the end of their allocation 0-3 bytes into it, or end
// at an inaccessible page; outputs are framed by canaries.
// ---------------------------------------------------------------------------

/// The scalar slot's payload of `residuals` at code length c.
std::vector<uint8_t> encode_residuals(const std::vector<int32_t>& residuals, int c) {
  const size_t n = residuals.size();
  std::vector<uint32_t> mags(n);
  std::vector<uint32_t> signs(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t r = residuals[i];
    mags[i] = static_cast<uint32_t>(r < 0 ? -r : r);
    signs[i] = r < 0 ? 1u : 0u;
  }
  std::vector<uint8_t> payload(block_payload_size(c, n));
  kernels::table(DispatchLevel::kScalar)
      .encode_block(mags.data(), signs.data(), n, c, payload.data());
  return payload;
}

/// A random residual block at code length c: magnitudes below 2^c with
/// the extreme 2^c - 1 mixed in (at c = 31, +-(2^31 - 1), the largest the
/// codec carries), random signs.
std::vector<int32_t> random_residuals(Prng& rng, size_t n, int c) {
  const uint32_t low = (1u << c) - 1u;
  std::vector<int32_t> r(n);
  for (size_t i = 0; i < n; ++i) {
    const auto mag = static_cast<int32_t>(rng.u32() % 4u == 0 ? low : rng.u32() & low);
    r[i] = (rng.u32() & 1u) != 0 ? -mag : mag;
  }
  return r;
}

/// Placements 0-3: flush against the end of a heap allocation, that many
/// bytes into it; kGuardedPlacement: ending at an inaccessible page.
constexpr size_t kGuardedPlacement = 4;

class PlacedPayload {
 public:
  PlacedPayload(std::span<const uint8_t> bytes, size_t placement) {
    if (placement == kGuardedPlacement) {
      guarded_ = std::make_unique<GuardedBytes>(bytes);
      data_ = guarded_->data();
      return;
    }
    heap_.resize(placement + bytes.size());
    std::copy(bytes.begin(), bytes.end(), heap_.begin() + static_cast<ptrdiff_t>(placement));
    data_ = heap_.data() + placement;
  }

  const uint8_t* data() const { return data_; }

 private:
  std::vector<uint8_t> heap_;
  std::unique_ptr<GuardedBytes> guarded_;
  const uint8_t* data_ = nullptr;
};

std::string placement_name(size_t placement) {
  return placement == kGuardedPlacement ? "guarded" : "misalign=" + std::to_string(placement);
}

/// One chunk's block chain with the per-value facts the models need.
struct TestChunk {
  uint32_t block_len = 0;
  size_t count = 0;
  std::vector<uint8_t> bytes;      ///< the payload
  std::vector<int> codes;          ///< per block
  std::vector<size_t> offsets;     ///< per block, into bytes
  std::vector<int32_t> residuals;  ///< per value; 0 in constant and raw blocks
  std::vector<uint32_t> raw_bits;  ///< per value; a raw block's float bits

  size_t block_size(size_t k) const {
    return (k + 1 < offsets.size() ? offsets[k + 1] : bytes.size()) - offsets[k];
  }
};

/// Append one block to ch: constant (code 0), raw (kRawBlockMarker, random
/// finite floats), or `residuals` at code length `code`.
void append_block(TestChunk& ch, Prng& rng, size_t n, int code,
                  const std::vector<int32_t>& residuals = {}) {
  ch.codes.push_back(code);
  ch.offsets.push_back(ch.bytes.size());
  ch.bytes.push_back(static_cast<uint8_t>(code));
  if (code == kRawBlockMarker) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t bits = (rng.u32() & 0x807FFFFFu) | ((1u + rng.u32() % 254u) << 23);
      ch.raw_bits.push_back(bits);
      ch.residuals.push_back(0);
      for (int b = 0; b < 4; ++b) ch.bytes.push_back(static_cast<uint8_t>(bits >> (8 * b)));
    }
    return;
  }
  if (code == 0) {
    ch.residuals.insert(ch.residuals.end(), n, 0);
    ch.raw_bits.insert(ch.raw_bits.end(), n, 0u);
    return;
  }
  const std::vector<uint8_t> payload = encode_residuals(residuals, code);
  ch.bytes.insert(ch.bytes.end(), payload.begin(), payload.end());
  ch.residuals.insert(ch.residuals.end(), residuals.begin(), residuals.end());
  ch.raw_bits.insert(ch.raw_bits.end(), n, 0u);
}

void append_random_block(TestChunk& ch, Prng& rng, size_t n, int code) {
  if (code == 0 || code == kRawBlockMarker) {
    append_block(ch, rng, n, code);
    return;
  }
  append_block(ch, rng, n, code, random_residuals(rng, n, code));
}

/// The code of block k of a test chain: every code length 0..31 in turn,
/// then a run of four constant blocks, a raw block (with_raw) and three at
/// random code lengths, repeating.
int chain_code(Prng& rng, size_t k, bool with_raw) {
  const size_t phase = k % 40;
  if (phase < 32) return static_cast<int>(phase);
  if (phase < 36) return 0;
  if (phase == 36 && with_raw) return kRawBlockMarker;
  return 1 + static_cast<int>(rng.u32() % 31u);
}

TestChunk make_chain(Prng& rng, size_t count, uint32_t block_len, bool with_raw) {
  TestChunk ch;
  ch.block_len = block_len;
  ch.count = count;
  for (size_t k = 0, pos = 0; pos < count; ++k, pos += block_len) {
    append_random_block(ch, rng, std::min<size_t>(block_len, count - pos),
                        chain_code(rng, k, with_raw));
  }
  return ch;
}

/// The chunk shapes every chain test sweeps: each block length with a
/// short last block (whole chunks at 1, 7 and 512), and two chunks past
/// 65536 values, where j(j+1)/2 outgrows 32 bits.
std::vector<std::pair<uint32_t, size_t>> chain_shapes() {
  std::vector<std::pair<uint32_t, size_t>> out;
  for (const uint32_t len : {1u, 7u, 32u, 33u, 100u, 512u}) {
    out.emplace_back(len, size_t{len} * 45 + (len > 1 ? len / 2 + 1 : 0));
  }
  out.emplace_back(7u, 7 * 45);
  out.emplace_back(512u, 512 * 41);
  out.emplace_back(32u, 70001);
  out.emplace_back(512u, 70001);
  return out;
}

std::string chain_name(const TestChunk& ch) {
  return "block_len=" + std::to_string(ch.block_len) + " count=" + std::to_string(ch.count);
}

constexpr uint32_t kCanaryFloatBits = 0x7FA5A5A5u;  // a NaN no dequantize produces

/// One decompress_chunk call into a canary-framed buffer, `dst_off` floats
/// in: the status and the bits of the whole frame.
struct DecompressRun {
  kernels::ChunkStatus status = kernels::ChunkStatus::kOk;
  std::vector<uint32_t> frame;
};

DecompressRun run_decompress(const KernelTable& t, const uint8_t* payload, const TestChunk& ch,
                             int64_t q0, double twice_eb, size_t dst_off) {
  std::vector<float> out(dst_off + ch.count + 8);
  for (float& v : out) std::memcpy(&v, &kCanaryFloatBits, sizeof v);
  DecompressRun run;
  run.status = t.decompress_chunk(payload, ch.bytes.size(), ch.count, ch.block_len, q0, twice_eb,
                                  out.data() + dst_off);
  run.frame.resize(out.size());
  std::memcpy(run.frame.data(), out.data(), out.size() * sizeof(float));
  return run;
}

TEST(KernelConformance, DecodeDequantizeMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  // Chain starts inside and far beyond +-2^53, where int64 -> double rounds.
  const int64_t kStarts[] = {0,
                             -123456789,
                             (int64_t{1} << 53) + 1,
                             -(int64_t{1} << 53) - 3,
                             (int64_t{1} << 62) - 12345,
                             -(int64_t{1} << 62) + 777};
  const double kScales[] = {2e-3, 1.0, 0.1, 6.103515625e-05, 3.3e-7};
  Prng rng(/*seed=*/0xDE0A47u, /*stream=*/0);
  size_t round = 0;
  for (const auto& [len, count] : chain_shapes()) {
    const TestChunk ch = make_chain(rng, count, len, /*with_raw=*/true);
    const int64_t q0 =
        kStarts[round % std::size(kStarts)] + static_cast<int64_t>(rng.u32() % 1024u);
    const double twice_eb = kScales[round % std::size(kScales)];
    ++round;
    const std::string what = chain_name(ch) + " q0=" + std::to_string(q0);
    // The oracle against the per-value model: the chain prefix-summed and
    // dequantized one value at a time, raw floats verbatim.
    const DecompressRun want = run_decompress(ref, ch.bytes.data(), ch, q0, twice_eb, 0);
    ASSERT_EQ(want.status, kernels::ChunkStatus::kOk) << what;
    int64_t q = q0;
    for (size_t i = 0; i < count; ++i) {
      const size_t k = i / len;
      uint32_t bits = ch.raw_bits[i];
      if (ch.codes[k] != kRawBlockMarker) {
        q += ch.residuals[i];
        const float f = static_cast<float>(static_cast<double>(q) * twice_eb);
        std::memcpy(&bits, &f, sizeof bits);
      }
      ASSERT_EQ(want.frame[i], bits) << "scalar oracle: " << what << " i=" << i;
    }
    for (size_t i = count; i < want.frame.size(); ++i) {
      ASSERT_EQ(want.frame[i], kCanaryFloatBits) << "scalar oracle canary: " << what;
    }
    for (DispatchLevel lvl : vector_levels()) {
      const KernelTable& vec = kernels::table(lvl);
      for (size_t placement = 0; placement <= kGuardedPlacement; ++placement) {
        const PlacedPayload src(ch.bytes, placement);
        const size_t dst_off = placement % 4;
        const DecompressRun got = run_decompress(vec, src.data(), ch, q0, twice_eb, dst_off);
        const DecompressRun framed =
            dst_off == 0 ? want : run_decompress(ref, ch.bytes.data(), ch, q0, twice_eb, dst_off);
        ASSERT_EQ(got.status, framed.status)
            << "level=" << kernels::level_name(lvl) << " " << what << " "
            << placement_name(placement);
        ASSERT_EQ(got.frame, framed.frame)
            << "floats (or the canaries around them) differ: level=" << kernels::level_name(lvl)
            << " " << what << " " << placement_name(placement);
      }
    }
  }
}

/// fold_chunk's digest words.
struct FoldRun {
  kernels::ChunkStatus status = kernels::ChunkStatus::kOk;
  uint64_t sum = 0;
  uint64_t wsum = 0;
};

FoldRun run_fold(const KernelTable& t, const uint8_t* payload, const TestChunk& ch, int64_t q0) {
  FoldRun run;
  run.status =
      t.fold_chunk(payload, ch.bytes.size(), ch.count, ch.block_len, q0, &run.sum, &run.wsum);
  return run;
}

TEST(KernelConformance, DigestBlockMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  Prng rng(/*seed=*/0xD16E57u, /*stream=*/0);
  for (const auto& [len, count] : chain_shapes()) {
    for (const bool with_raw : {false, true}) {
      const TestChunk ch = make_chain(rng, count, len, with_raw);
      // Chain starts up to +-2^62: the words wrap mod 2^64 at once.
      const auto q0 =
          static_cast<int64_t>(rng.next() % (uint64_t{1} << 63)) - (int64_t{1} << 62);
      const std::string what = chain_name(ch) + (with_raw ? " with raw blocks" : "");
      // The oracle against the per-value model: Digest::accumulate over the
      // chain at every non-raw position.
      const FoldRun want = run_fold(ref, ch.bytes.data(), ch, q0);
      ASSERT_EQ(want.status, kernels::ChunkStatus::kOk) << what;
      integrity::Digest d;
      int64_t q = q0;
      for (size_t i = 0; i < count; ++i) {
        if (ch.codes[i / len] == kRawBlockMarker) continue;
        q += ch.residuals[i];
        d.accumulate(q, i + 1);
      }
      ASSERT_EQ(want.sum, d.sum) << "scalar oracle: " << what;
      ASSERT_EQ(want.wsum, d.wsum) << "scalar oracle: " << what;
      for (DispatchLevel lvl : vector_levels()) {
        const KernelTable& vec = kernels::table(lvl);
        for (size_t placement = 0; placement <= kGuardedPlacement; ++placement) {
          const PlacedPayload src(ch.bytes, placement);
          const FoldRun got = run_fold(vec, src.data(), ch, q0);
          const std::string where = std::string("level=") + kernels::level_name(lvl) + " " +
                                    what + " " + placement_name(placement);
          ASSERT_EQ(got.status, want.status) << where;
          ASSERT_EQ(got.sum, want.sum) << where;
          ASSERT_EQ(got.wsum, want.wsum) << where;
        }
      }
    }
  }
}

/// One combine_chunk call into a canary-framed buffer of `capacity` bytes.
struct CombineRun {
  kernels::CombineChunkResult res;
  std::vector<uint8_t> frame;
};

CombineRun run_combine(const KernelTable& t, const uint8_t* pa, const TestChunk& a,
                       const uint8_t* pb, const TestChunk& b, int sign_b, size_t capacity) {
  CombineRun run;
  run.frame.assign(capacity + 16, kGuardByte);
  run.res = t.combine_chunk(pa, a.bytes.size(), pb, b.bytes.size(), a.count, a.block_len, sign_b,
                            run.frame.data(), capacity);
  return run;
}

void expect_same_result(const kernels::CombineChunkResult& got,
                        const kernels::CombineChunkResult& want, const std::string& where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.bytes, want.bytes) << where;
  EXPECT_EQ(got.p1, want.p1) << where;
  EXPECT_EQ(got.p2, want.p2) << where;
  EXPECT_EQ(got.p3, want.p3) << where;
  EXPECT_EQ(got.p4, want.p4) << where;
  EXPECT_EQ(got.copied_bytes, want.copied_bytes) << where;
  EXPECT_EQ(got.p4_elements, want.p4_elements) << where;
}

/// The per-value model of combine_chunk on a chain pair, a + sign_b * b:
/// the output bytes and counts, or the fault at the first block that has
/// one and the bytes and counts before it.
struct CombineModel {
  kernels::CombineChunkResult res;
  std::vector<uint8_t> bytes;
};

CombineModel combine_model(const TestChunk& a, const TestChunk& b, int sign_b, size_t capacity) {
  CombineModel m;
  auto& r = m.res;
  const auto fail = [&](kernels::ChunkStatus st) {
    r.status = st;
    return m;
  };
  for (size_t k = 0; k < a.codes.size(); ++k) {
    const size_t pos = k * a.block_len;
    const size_t n = std::min<size_t>(a.block_len, a.count - pos);
    const int ca = a.codes[k];
    const int cb = b.codes[k];
    const auto block_a = a.bytes.begin() + static_cast<ptrdiff_t>(a.offsets[k]);
    const auto block_b = b.bytes.begin() + static_cast<ptrdiff_t>(b.offsets[k]);
    std::vector<uint8_t> out;
    if (ca == 0 && cb == 0) {
      out = {0};
      ++r.p1;
    } else if (ca == 0) {
      out.assign(block_b, block_b + static_cast<ptrdiff_t>(b.block_size(k)));
      if (sign_b < 0 && cb == kRawBlockMarker) {
        for (size_t i = 0; i < n; ++i) out[1 + 4 * i + 3] ^= 0x80u;
      } else if (sign_b < 0) {
        for (size_t i = 0; i < n; ++i) out[1 + i / 8] ^= static_cast<uint8_t>(1u << (i % 8));
      }
      if (out.size() > capacity - r.bytes) {
        return fail(sign_b > 0 ? kernels::ChunkStatus::kCopyCapacity
                               : kernels::ChunkStatus::kNegateCapacity);
      }
      ++r.p2;
      r.copied_bytes += out.size();
    } else if (cb == 0) {
      out.assign(block_a, block_a + static_cast<ptrdiff_t>(a.block_size(k)));
      if (out.size() > capacity - r.bytes) return fail(kernels::ChunkStatus::kCopyCapacity);
      ++r.p3;
      r.copied_bytes += out.size();
    } else {
      if (ca == kRawBlockMarker || cb == kRawBlockMarker) {
        return fail(kernels::ChunkStatus::kRawInMerge);
      }
      std::vector<int32_t> s(n);
      uint64_t guard = 0;
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = int64_t{a.residuals[pos + i]} + int64_t{sign_b} * b.residuals[pos + i];
        guard |= static_cast<uint64_t>(v < 0 ? -v : v);
        s[i] = static_cast<int32_t>(v);
      }
      if (guard > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
        return fail(kernels::ChunkStatus::kOverflow);
      }
      const int c = code_length_for(static_cast<uint32_t>(guard));
      out = {static_cast<uint8_t>(c)};
      if (c > 0) {
        const std::vector<uint8_t> payload = encode_residuals(s, c);
        out.insert(out.end(), payload.begin(), payload.end());
      }
      if (out.size() > capacity - r.bytes) return fail(kernels::ChunkStatus::kEncodeCapacity);
      ++r.p4;
      r.p4_elements += n;
    }
    m.bytes.insert(m.bytes.end(), out.begin(), out.end());
    r.bytes += out.size();
  }
  return m;
}

/// A chain pair for combine tests: block k of each side cycles through the
/// four pipelines, constant runs, raw blocks copied by pipelines 2 and 3,
/// and pipeline-4 pairs at code lengths 1..30 (whose sums always fit) or
/// at 31 merging to exactly +-(2^31 - 1) in some lanes.
std::pair<TestChunk, TestChunk> make_pair_chains(Prng& rng, size_t count, uint32_t block_len,
                                                 int sign_b) {
  std::pair<TestChunk, TestChunk> p;
  auto& [a, b] = p;
  a.block_len = b.block_len = block_len;
  a.count = b.count = count;
  for (size_t k = 0, pos = 0; pos < count; ++k, pos += block_len) {
    const size_t n = std::min<size_t>(block_len, count - pos);
    const auto code = [&] { return 1 + static_cast<int>(rng.u32() % 30u); };
    switch (k % 10) {
      case 0:
      case 1:
        append_block(a, rng, n, 0);
        append_block(b, rng, n, 0);
        break;
      case 2:
        append_block(a, rng, n, 0);
        append_random_block(b, rng, n, k % 20 == 2 ? kRawBlockMarker : code());
        break;
      case 3:
        append_random_block(a, rng, n, k % 20 == 3 ? kRawBlockMarker : code());
        append_block(b, rng, n, 0);
        break;
      case 4: {
        // Lanes that merge to exactly +-(2^31 - 1), the rest small.
        std::vector<int32_t> ra(n);
        std::vector<int32_t> rb(n);
        for (size_t i = 0; i < n; ++i) {
          const auto t = static_cast<int32_t>(rng.u32() >> 2);
          const int32_t side = (rng.u32() & 1u) != 0 ? 1 : -1;
          if (rng.u32() % 3u == 0) {
            ra[i] = side * (std::numeric_limits<int32_t>::max() - t);
            rb[i] = side * sign_b * t;
          } else {
            ra[i] = side * t;
            rb[i] = -side * sign_b * (t / 2);
          }
        }
        append_block(a, rng, n, 31, ra);
        append_block(b, rng, n, 31, rb);
        break;
      }
      default:
        append_random_block(a, rng, n, code());
        append_random_block(b, rng, n, code());
        break;
    }
  }
  return p;
}

TEST(KernelConformance, CombineResidualsMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  Prng rng(/*seed=*/0x5E5E5Eu, /*stream=*/0);
  for (const auto& [len, count] : chain_shapes()) {
    for (const int sign_b : {+1, -1}) {
      const auto [a, b] = make_pair_chains(rng, count, len, sign_b);
      const std::string what = chain_name(a) + " sign_b=" + std::to_string(sign_b);
      // Room for every block at code length 31: the assembler's bound.
      const size_t capacity = a.codes.size() * max_encoded_block_size(len);
      const CombineModel model = combine_model(a, b, sign_b, capacity);
      ASSERT_EQ(model.res.status, kernels::ChunkStatus::kOk) << what;
      const CombineRun want = run_combine(ref, a.bytes.data(), a, b.bytes.data(), b, sign_b,
                                          capacity);
      expect_same_result(want.res, model.res, "scalar oracle: " + what);
      ASSERT_TRUE(std::equal(model.bytes.begin(), model.bytes.end(), want.frame.begin()))
          << "scalar oracle bytes: " << what;
      ASSERT_TRUE(std::all_of(want.frame.begin() + static_cast<ptrdiff_t>(model.bytes.size()),
                              want.frame.end(), [](uint8_t v) { return v == kGuardByte; }))
          << "scalar oracle wrote past its output: " << what;
      for (DispatchLevel lvl : vector_levels()) {
        const KernelTable& vec = kernels::table(lvl);
        for (size_t placement = 0; placement <= kGuardedPlacement; ++placement) {
          const PlacedPayload pa(a.bytes, placement);
          const PlacedPayload pb(b.bytes, (placement + 1) % (kGuardedPlacement + 1));
          const CombineRun got = run_combine(vec, pa.data(), a, pb.data(), b, sign_b, capacity);
          const std::string where = std::string("level=") + kernels::level_name(lvl) + " " +
                                    what + " " + placement_name(placement);
          expect_same_result(got.res, want.res, where);
          ASSERT_EQ(got.frame, want.frame) << "output bytes (or their canaries) differ: " << where;
        }
      }
    }
  }
  // Past the guard: one lane of one pipeline-4 pair merges to +-2^31 (both
  // signs of the sum, through either operand), the rest of the chunk fits.
  for (const int sign_b : {+1, -1}) {
    for (const int32_t side : {+1, -1}) {
      for (const size_t lane : {size_t{0}, size_t{13}, size_t{31}, size_t{32}, size_t{99}}) {
        constexpr uint32_t kLen = 100;
        auto [a, b] = make_pair_chains(rng, kLen * 12, kLen, sign_b);
        // Block 5 is a pipeline-4 pair (k % 10 == 5).
        std::vector<int32_t> ra(kLen, 1);
        std::vector<int32_t> rb(kLen, 0);
        ra[lane] = side * std::numeric_limits<int32_t>::max();
        rb[lane] = side * sign_b;
        TestChunk a2;
        TestChunk b2;
        a2.block_len = b2.block_len = kLen;
        a2.count = b2.count = a.count;
        for (size_t k = 0; k < a.codes.size(); ++k) {
          const auto slice = [&](const TestChunk& ch) {
            return std::vector<int32_t>(ch.residuals.begin() + static_cast<ptrdiff_t>(k * kLen),
                                        ch.residuals.begin() + static_cast<ptrdiff_t>((k + 1) * kLen));
          };
          append_block(a2, rng, kLen, k == 5 ? 31 : a.codes[k], k == 5 ? ra : slice(a));
          append_block(b2, rng, kLen, k == 5 ? 1 : b.codes[k], k == 5 ? rb : slice(b));
        }
        const std::string what = "overflow lane " + std::to_string(lane) +
                                 " side=" + std::to_string(side) +
                                 " sign_b=" + std::to_string(sign_b);
        const size_t capacity = a2.codes.size() * max_encoded_block_size(kLen);
        const CombineModel model = combine_model(a2, b2, sign_b, capacity);
        ASSERT_EQ(model.res.status, kernels::ChunkStatus::kOverflow) << what;
        for (DispatchLevel lvl : kernels::supported_levels()) {
          const CombineRun got = run_combine(kernels::table(lvl), a2.bytes.data(), a2,
                                             b2.bytes.data(), b2, sign_b, capacity);
          expect_same_result(got.res, model.res,
                             std::string("level=") + kernels::level_name(lvl) + " " + what);
          ASSERT_TRUE(std::equal(model.bytes.begin(), model.bytes.end(), got.frame.begin()))
              << "bytes before the overflowing block: level=" << kernels::level_name(lvl) << " "
              << what;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fused pass's raw verdict against classify_raw_block at every level,
// the scalar slot included: NaN and infinities at every lane, signed zeros,
// subnormal counts on both sides of the n/2 rule, and out-of-domain blocks
// the verdict outranks.  A raw verdict must leave every output canary
// standing.  Each input starts 0-3 floats into an allocation it ends flush
// against, and runs once more ending at an inaccessible page.
// ---------------------------------------------------------------------------

kernels::RawVerdict classify_oracle(const float* data, size_t n) {
  const std::optional<RawBlockReason> reason = classify_raw_block(data, n);
  if (!reason) return kernels::RawVerdict::kNone;
  return *reason == RawBlockReason::kNonFinite ? kernels::RawVerdict::kNonFinite
                                               : kernels::RawVerdict::kDenormalHeavy;
}

void check_raw_verdict(const KernelTable& t, const std::vector<float>& block,
                       const std::string& what) {
  const size_t n = block.size();
  const kernels::RawVerdict want = classify_oracle(block.data(), n);
  const auto check = [&](const float* data, const std::string& where) {
    const SlotRun run = run_slot(t, data, n, 500.0, -7, /*restart=*/false);
    ASSERT_EQ(run.res.raw, want) << where;
    if (want == kernels::RawVerdict::kNone) {
      expect_slot_matches_oracle(t, data, n, 500.0, -7, /*restart=*/false);
      return;
    }
    EXPECT_EQ(run.res.q_guard, 0u) << where;
    EXPECT_EQ(run.res.max_mag, 0u) << where;
    for (size_t i = 0; i < run.q.size(); ++i) {
      ASSERT_EQ(run.q[i], kCanary64) << "a raw verdict wrote q[" << i << "]: " << where;
      ASSERT_EQ(run.mags[i], kCanaryU32) << "a raw verdict wrote mags[" << i << "]: " << where;
      ASSERT_EQ(run.signs[i], kCanaryU32) << "a raw verdict wrote signs[" << i << "]: " << where;
    }
  };
  const std::string base = std::string("level=") + kernels::level_name(t.level) +
                           " n=" + std::to_string(n) + " " + what;
  for (size_t misalign = 0; misalign < 4; ++misalign) {
    std::vector<float> in(misalign + n);
    std::copy(block.begin(), block.end(), in.begin() + static_cast<ptrdiff_t>(misalign));
    check(in.data() + misalign, base + " misalign=" + std::to_string(misalign));
  }
  const GuardedBytes guarded(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(block.data()), n * sizeof(float)));
  check(reinterpret_cast<const float*>(guarded.data()), base + " guarded");
}

constexpr uint32_t kFloatMantissaBits = 0x007FFFFFu;

float float_from_bits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

TEST(KernelConformance, QuantizePredictRawVerdictMatchesClassifyRawBlock) {
  // Quiet, negative, signaling and payload-carrying NaNs.
  const uint32_t kNaNs[] = {0x7FC00000u, 0xFFC00000u, 0x7F800001u, 0x7FC12345u};
  const float inf = std::numeric_limits<float>::infinity();
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    Prng rng(/*seed=*/0x4A3B1Cu, /*stream=*/static_cast<uint64_t>(lvl));
    const auto subnormal = [&] {
      const uint32_t mantissa = std::max(rng.u32() & kFloatMantissaBits, 1u);
      return float_from_bits(mantissa | ((rng.u32() & 1u) << 31));
    };
    for (const size_t n : block_lengths()) {
      std::vector<float> finite(n);
      for (float& v : finite) {
        v = (static_cast<float>(rng.u32() % 2000001u) - 1000000.0f) * 1e-3f;
      }
      for (size_t i = 0; i < n; ++i) {
        std::vector<float> block = finite;
        block[i] = float_from_bits(kNaNs[i % std::size(kNaNs)]);
        check_raw_verdict(t, block, "NaN at lane " + std::to_string(i));
        block[i] = inf;
        check_raw_verdict(t, block, "+Inf at lane " + std::to_string(i));
        block[i] = -inf;
        check_raw_verdict(t, block, "-Inf at lane " + std::to_string(i));
        if (HasFatalFailure()) return;
      }
      std::vector<float> zeros(n, 0.0f);
      for (size_t i = 0; i < n; i += 2) zeros[i] = -0.0f;
      check_raw_verdict(t, zeros, "signed zeros");

      // Subnormals at shuffled lanes: n/2 of them stay quantized, n/2 + 1
      // make the block denormal-heavy.
      std::vector<size_t> lanes(n);
      for (size_t i = 0; i < n; ++i) lanes[i] = i;
      for (size_t i = n; i > 1; --i) std::swap(lanes[i - 1], lanes[rng.u32() % i]);
      for (const size_t count : {n / 2, n / 2 + 1}) {
        std::vector<float> block = finite;
        for (size_t k = 0; k < count; ++k) block[lanes[k]] = subnormal();
        check_raw_verdict(t, block, std::to_string(count) + " subnormals");
        if (count == n / 2 + 1) {
          block[lanes[n - 1]] = float_from_bits(kNaNs[0]);
          check_raw_verdict(t, block, "denormal-heavy with a NaN");
        }
      }

      // Out of the quantization domain: quantized (the caller raises), unless
      // a non-finite lane makes it raw first.
      std::vector<float> huge(n);
      for (float& v : huge) v = (rng.u32() % 2u ? 1.0f : -1.0f) * 1e13f;
      check_raw_verdict(t, huge, "out of domain");
      huge[n - 1] = -inf;
      check_raw_verdict(t, huge, "out of domain with -Inf");
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline sweep over every bundled dataset: forcing any level must
// reproduce the scalar level's compressed bytes, homomorphic sums, and
// decompressed floats exactly.
// ---------------------------------------------------------------------------

TEST(KernelConformance, DatasetPipelinesAreLevelInvariant) {
  LevelGuard guard;
  for (const DatasetId id : all_datasets()) {
    const std::vector<float> f0 = generate_field(id, Scale::kTiny, 0);
    const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
    FzParams p;
    p.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
    SzpParams sp;
    sp.abs_error_bound = p.abs_error_bound;
    SzxParams sx;
    sx.abs_error_bound = p.abs_error_bound;

    kernels::set_dispatch_level(DispatchLevel::kScalar);
    const CompressedBuffer a_ref = fz_compress(f0, p);
    const CompressedBuffer b_ref = fz_compress(f1, p);
    const CompressedBuffer sum_ref = hz_add(a_ref, b_ref);
    const CompressedBuffer szp_ref = szp_compress(f0, sp);
    const CompressedBuffer szx_ref = szx_compress(f0, sx);
    std::vector<float> dec_ref(f0.size());
    fz_decompress(a_ref, dec_ref);

    for (DispatchLevel lvl : vector_levels()) {
      kernels::set_dispatch_level(lvl);
      SCOPED_TRACE(std::string("dataset=") + dataset_slug(id) +
                   " level=" + kernels::level_name(lvl));
      const CompressedBuffer a = fz_compress(f0, p);
      const CompressedBuffer b = fz_compress(f1, p);
      EXPECT_EQ(a.bytes, a_ref.bytes) << "fz_compress bytes drifted";
      EXPECT_EQ(b.bytes, b_ref.bytes);
      const CompressedBuffer sum = hz_add(a, b);
      EXPECT_EQ(sum.bytes, sum_ref.bytes) << "hz_add bytes drifted";
      EXPECT_EQ(szp_compress(f0, sp).bytes, szp_ref.bytes) << "szp_compress bytes drifted";
      EXPECT_EQ(szx_compress(f0, sx).bytes, szx_ref.bytes) << "szx_compress bytes drifted";
      std::vector<float> dec(f0.size());
      fz_decompress(a, dec);
      EXPECT_EQ(std::memcmp(dec.data(), dec_ref.data(), dec.size() * sizeof(float)), 0)
          << "fz_decompress floats drifted";
    }
  }
}

TEST(KernelConformance, HzAddManyIsLevelInvariant) {
  LevelGuard guard;
  const std::vector<std::vector<float>> fields = generate_fields(DatasetId::kNyx, Scale::kTiny, 6);
  FzParams p;
  p.abs_error_bound = abs_bound_from_rel(fields[0], 1e-3);
  std::vector<CompressedBuffer> ops;
  kernels::set_dispatch_level(DispatchLevel::kScalar);
  for (const auto& f : fields) ops.push_back(fz_compress(f, p));
  const CompressedBuffer ref = hz_add_many(ops);
  for (DispatchLevel lvl : vector_levels()) {
    kernels::set_dispatch_level(lvl);
    EXPECT_EQ(hz_add_many(ops).bytes, ref.bytes)
        << "hz_add_many bytes drifted at level " << kernels::level_name(lvl);
  }
}

}  // namespace
}  // namespace hzccl
