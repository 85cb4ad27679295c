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
// The fused decodes (decode_dequantize, decode_fold, decode_combine): each
// level against the scalar oracle, on payloads the scalar encoder wrote, and
// the oracle itself against the residuals those payloads carry.  Payloads
// sit flush against the end of their allocation 0-3 bytes into it, or end
// at an inaccessible page; outputs are framed by canaries.
// ---------------------------------------------------------------------------

/// A random residual block at code length c, encoded by the scalar slot:
/// magnitudes below 2^c with the extreme 2^c - 1 mixed in (at c = 31,
/// +-(2^31 - 1), the largest the codec carries), random signs.
struct EncodedBlock {
  int c = 0;
  std::vector<int32_t> residuals;
  std::vector<uint8_t> payload;  ///< the bytes after the code-length byte
};

EncodedBlock encode_random_block(Prng& rng, size_t n, int c) {
  const uint32_t low = (1u << c) - 1u;
  EncodedBlock b;
  b.c = c;
  b.residuals.resize(n);
  std::vector<uint32_t> mags(n);
  std::vector<uint32_t> signs(n);
  for (size_t i = 0; i < n; ++i) {
    mags[i] = rng.u32() % 4u == 0 ? low : rng.u32() & low;
    signs[i] = rng.u32() & 1u;
    const auto mag = static_cast<int32_t>(mags[i]);
    b.residuals[i] = signs[i] != 0 ? -mag : mag;
  }
  b.payload.resize(block_payload_size(c, n));
  kernels::table(DispatchLevel::kScalar)
      .encode_block(mags.data(), signs.data(), n, c, b.payload.data());
  return b;
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

constexpr uint32_t kCanaryFloatBits = 0x7FA5A5A5u;  // a NaN no dequantize produces

/// One decode_dequantize call into a canary-framed buffer, `dst_off` floats
/// in: the chain value it returned and the bits of the whole frame.
struct DequantizeRun {
  int64_t q = 0;
  std::vector<uint32_t> frame;
};

DequantizeRun run_dequantize(const KernelTable& t, const uint8_t* payload, size_t n, int c,
                             int64_t q, double twice_eb, size_t dst_off) {
  std::vector<float> out(dst_off + n + 8);
  for (float& v : out) std::memcpy(&v, &kCanaryFloatBits, sizeof v);
  DequantizeRun run;
  run.q = t.decode_dequantize(payload, n, c, q, twice_eb, out.data() + dst_off);
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
  for (int c = 1; c <= kMaxCodeLength; ++c) {
    for (const size_t n : block_lengths()) {
      const EncodedBlock b = encode_random_block(rng, n, c);
      const int64_t q0 = kStarts[round % std::size(kStarts)] +
                         static_cast<int64_t>(rng.u32() % 1024u);
      const double twice_eb = kScales[round % std::size(kScales)];
      ++round;
      const std::string what = "c=" + std::to_string(c) + " n=" + std::to_string(n) +
                               " q0=" + std::to_string(q0);
      // The oracle against the residuals it was encoded from.
      const DequantizeRun want = run_dequantize(ref, b.payload.data(), n, c, q0, twice_eb, 0);
      int64_t q = q0;
      for (size_t i = 0; i < n; ++i) {
        q += b.residuals[i];
        const float f = static_cast<float>(static_cast<double>(q) * twice_eb);
        uint32_t bits;
        std::memcpy(&bits, &f, sizeof bits);
        ASSERT_EQ(want.frame[i], bits) << "scalar oracle: " << what << " i=" << i;
      }
      ASSERT_EQ(want.q, q) << "scalar oracle chain: " << what;
      for (size_t i = n; i < want.frame.size(); ++i) {
        ASSERT_EQ(want.frame[i], kCanaryFloatBits) << "scalar oracle canary: " << what;
      }
      for (DispatchLevel lvl : vector_levels()) {
        const KernelTable& vec = kernels::table(lvl);
        for (size_t placement = 0; placement <= kGuardedPlacement; ++placement) {
          const PlacedPayload src(b.payload, placement);
          const size_t dst_off = placement % 4;
          const DequantizeRun got = run_dequantize(vec, src.data(), n, c, q0, twice_eb, dst_off);
          const DequantizeRun framed =
              dst_off == 0 ? want
                           : run_dequantize(ref, b.payload.data(), n, c, q0, twice_eb, dst_off);
          ASSERT_EQ(got.q, framed.q) << "level=" << kernels::level_name(lvl) << " " << what
                                     << " " << placement_name(placement);
          ASSERT_EQ(got.frame, framed.frame)
              << "floats (or the canaries around them) differ: level="
              << kernels::level_name(lvl) << " " << what << " " << placement_name(placement);
        }
      }
    }
  }
}

/// The digest fold of decoded residuals one value at a time: the definition
/// the oracle must meet.
int64_t serial_fold(const std::vector<int32_t>& r, int64_t q, uint64_t pos, uint64_t* sum,
                    uint64_t* wsum) {
  integrity::Digest d{*sum, *wsum};
  for (size_t i = 0; i < r.size(); ++i) {
    q += r[i];
    d.accumulate(q, pos + i);
  }
  *sum = d.sum;
  *wsum = d.wsum;
  return q;
}

TEST(KernelConformance, DigestBlockMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  Prng rng(/*seed=*/0xD16E57u, /*stream=*/0);
  for (int c = 1; c <= kMaxCodeLength; ++c) {
    for (const size_t n : block_lengths()) {
      // Chain values up to +-2^62, positions up to 2^40, and a non-zero
      // digest to fold into.
      const EncodedBlock b = encode_random_block(rng, n, c);
      const auto q = static_cast<int64_t>(rng.next() % (uint64_t{1} << 63)) - (int64_t{1} << 62);
      const uint64_t pos = 1 + rng.next() % (uint64_t{1} << 40);
      const uint64_t sum0 = rng.next();
      const uint64_t wsum0 = rng.next();
      const std::string what = "c=" + std::to_string(c) + " n=" + std::to_string(n);
      uint64_t sum_ref = sum0;
      uint64_t wsum_ref = wsum0;
      const int64_t q_ref = ref.decode_fold(b.payload.data(), n, c, q, pos, &sum_ref, &wsum_ref);
      uint64_t sum_def = sum0;
      uint64_t wsum_def = wsum0;
      ASSERT_EQ(q_ref, serial_fold(b.residuals, q, pos, &sum_def, &wsum_def)) << what;
      ASSERT_EQ(sum_ref, sum_def) << "scalar oracle: " << what;
      ASSERT_EQ(wsum_ref, wsum_def) << "scalar oracle: " << what;
      for (DispatchLevel lvl : vector_levels()) {
        const KernelTable& vec = kernels::table(lvl);
        for (size_t placement = 0; placement <= kGuardedPlacement; ++placement) {
          const PlacedPayload src(b.payload, placement);
          uint64_t sum_vec = sum0;
          uint64_t wsum_vec = wsum0;
          const int64_t q_vec = vec.decode_fold(src.data(), n, c, q, pos, &sum_vec, &wsum_vec);
          const std::string where = std::string("level=") + kernels::level_name(lvl) + " " +
                                    what + " " + placement_name(placement);
          ASSERT_EQ(q_vec, q_ref) << where;
          ASSERT_EQ(sum_vec, sum_ref) << where;
          ASSERT_EQ(wsum_vec, wsum_ref) << where;
        }
      }
    }
  }
  // Chained blocks: folding a run block by block, each continuing from the
  // previous chain value and position, equals one serial fold of the run.
  Prng fill(/*seed=*/0xC4A1Du, /*stream=*/0);
  std::vector<int32_t> run(kernels::kMaxBlockValues);
  for (int32_t& v : run) v = static_cast<int32_t>(fill.u32() >> 1) - (1 << 30);
  uint64_t sum_def = 0;
  uint64_t wsum_def = 0;
  const int64_t q0 = int64_t{1} << 61;
  const int64_t q_def = serial_fold(run, q0, 1, &sum_def, &wsum_def);
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (const size_t block : {size_t{1}, size_t{7}, size_t{32}, size_t{100}, size_t{512}}) {
      uint64_t sum = 0;
      uint64_t wsum = 0;
      int64_t q = q0;
      for (size_t at = 0; at < run.size(); at += block) {
        const size_t n = std::min(block, run.size() - at);
        std::vector<uint32_t> mags(n);
        std::vector<uint32_t> signs(n);
        uint32_t max_mag = 0;
        for (size_t i = 0; i < n; ++i) {
          const int32_t r = run[at + i];
          mags[i] = static_cast<uint32_t>(r < 0 ? -r : r);
          signs[i] = r < 0 ? 1u : 0u;
          max_mag |= mags[i];
        }
        const int c = std::max(code_length_for(max_mag), 1);
        std::vector<uint8_t> payload(block_payload_size(c, n));
        ref.encode_block(mags.data(), signs.data(), n, c, payload.data());
        q = t.decode_fold(payload.data(), n, c, q, 1 + at, &sum, &wsum);
      }
      EXPECT_EQ(q, q_def) << "level=" << kernels::level_name(lvl) << " block=" << block;
      EXPECT_EQ(sum, sum_def) << "level=" << kernels::level_name(lvl) << " block=" << block;
      EXPECT_EQ(wsum, wsum_def) << "level=" << kernels::level_name(lvl) << " block=" << block;
    }
  }
}

/// One decode_combine call with canary-framed outputs.
struct CombineRun {
  uint64_t guard = 0;
  std::vector<uint32_t> mags;
  std::vector<uint32_t> signs;
};

CombineRun run_combine(const KernelTable& t, const uint8_t* pa, int ca, const uint8_t* pb, int cb,
                       size_t n, int sign_b) {
  CombineRun run;
  run.mags.assign(n + 2 * kSlotPad, kCanaryU32);
  run.signs.assign(n + 2 * kSlotPad, kCanaryU32);
  run.guard = t.decode_combine(pa, ca, pb, cb, n, sign_b, run.mags.data() + kSlotPad,
                               run.signs.data() + kSlotPad);
  return run;
}

TEST(KernelConformance, CombineResidualsMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  // Equal and unequal code lengths; (31, 31) carries the guard-overflow
  // lanes, where two extremes of one sign sum past INT32_MAX.
  const std::pair<int, int> kPairs[] = {{31, 31}, {1, 1}, {5, 6}, {6, 5}, {1, 31},
                                        {31, 1},  {8, 16}, {17, 9}, {0, 0}, {0, 0}};
  Prng rng(/*seed=*/0x5E5E5Eu, /*stream=*/0);
  bool saw_overflow = false;
  for (const size_t n : block_lengths()) {
    for (auto [ca, cb] : kPairs) {
      if (ca == 0) {  // random pair
        ca = 1 + static_cast<int>(rng.u32() % 31u);
        cb = 1 + static_cast<int>(rng.u32() % 31u);
      }
      const EncodedBlock a = encode_random_block(rng, n, ca);
      const EncodedBlock b = encode_random_block(rng, n, cb);
      for (const int sign_b : {+1, -1}) {
        const std::string what = "ca=" + std::to_string(ca) + " cb=" + std::to_string(cb) +
                                 " n=" + std::to_string(n) + " sign_b=" + std::to_string(sign_b);
        const CombineRun want =
            run_combine(ref, a.payload.data(), ca, b.payload.data(), cb, n, sign_b);
        // The oracle against the int64 merge of the encoded residuals.
        uint64_t guard = 0;
        for (size_t i = 0; i < n; ++i) {
          const int64_t s = int64_t{a.residuals[i]} + int64_t{sign_b} * b.residuals[i];
          const uint64_t mag = static_cast<uint64_t>(s < 0 ? -s : s);
          guard |= mag;
          ASSERT_EQ(want.mags[kSlotPad + i], static_cast<uint32_t>(mag)) << what << " i=" << i;
          ASSERT_EQ(want.signs[kSlotPad + i], s < 0 ? 1u : 0u) << what << " i=" << i;
        }
        ASSERT_EQ(want.guard, guard) << "scalar oracle: " << what;
        saw_overflow |= guard > static_cast<uint64_t>(std::numeric_limits<int32_t>::max());
        for (DispatchLevel lvl : vector_levels()) {
          const KernelTable& vec = kernels::table(lvl);
          for (size_t placement = 0; placement <= kGuardedPlacement; ++placement) {
            const PlacedPayload pa(a.payload, placement);
            const PlacedPayload pb(b.payload, (placement + 1) % (kGuardedPlacement + 1));
            const CombineRun got = run_combine(vec, pa.data(), ca, pb.data(), cb, n, sign_b);
            const std::string where = std::string("level=") + kernels::level_name(lvl) + " " +
                                      what + " " + placement_name(placement);
            ASSERT_EQ(got.guard, want.guard) << "combine guard mismatch: " << where;
            ASSERT_EQ(got.mags, want.mags) << "magnitudes (or their canaries) differ: " << where;
            ASSERT_EQ(got.signs, want.signs) << "signs (or their canaries) differ: " << where;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_overflow) << "no guard-overflow lane was exercised";
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
