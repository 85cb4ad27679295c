#include "hzccl/stats/metrics.hpp"

#include "hzccl/util/contracts.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "hzccl/util/error.hpp"

namespace hzccl {

ErrorStats compare(std::span<const float> original, std::span<const float> reconstructed) {
  if (original.size() != reconstructed.size()) {
    throw Error("compare(): size mismatch");
  }
  ErrorStats s;
  if (original.empty()) return s;

  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  double sq_sum = 0.0;
  double max_abs = 0.0;
  double max_pw = 0.0;
  for (size_t i = 0; i < original.size(); ++i) {
    const double o = original[i];
    const double err = std::abs(o - static_cast<double>(reconstructed[i]));
    mn = std::min(mn, o);
    mx = std::max(mx, o);
    sq_sum += err * err;
    max_abs = std::max(max_abs, err);
    if (o != 0.0) max_pw = std::max(max_pw, err / std::abs(o));
  }
  s.min = mn;
  s.max = mx;
  s.range = mx - mn;
  s.max_abs_err = max_abs;
  s.max_pw_rel_err = max_pw;
  s.rmse = std::sqrt(sq_sum / static_cast<double>(original.size()));
  if (s.range > 0.0) {
    s.max_rel_err = max_abs / s.range;
    s.nrmse = s.rmse / s.range;
    s.psnr = s.rmse > 0.0 ? 20.0 * std::log10(s.range / s.rmse)
                          : std::numeric_limits<double>::infinity();
  }
  return s;
}

HZCCL_HOT std::optional<RawBlockReason> classify_raw_block(const float* values, size_t n) {
  constexpr uint32_t kExpMask = 0x7f800000u;
  constexpr uint32_t kMantissaMask = 0x007fffffu;
  uint32_t nonfinite = 0;
  size_t subnormals = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    const uint32_t exp = bits & kExpMask;
    nonfinite |= static_cast<uint32_t>(exp == kExpMask);
    subnormals += static_cast<size_t>(exp == 0 && (bits & kMantissaMask) != 0);
  }
  if (nonfinite != 0) return RawBlockReason::kNonFinite;
  if (2 * subnormals > n) return RawBlockReason::kDenormalHeavy;
  return std::nullopt;
}

namespace {
std::atomic<uint64_t> g_raw_block_counts[2] = {};
}  // namespace

HZCCL_HOT void count_raw_block(RawBlockReason reason, uint64_t blocks) {
  g_raw_block_counts[static_cast<int>(reason)].fetch_add(blocks, std::memory_order_relaxed);
}

uint64_t raw_block_encodes(RawBlockReason reason) {
  return g_raw_block_counts[static_cast<int>(reason)].load(std::memory_order_relaxed);
}

uint64_t raw_block_encodes() {
  return raw_block_encodes(RawBlockReason::kNonFinite) +
         raw_block_encodes(RawBlockReason::kDenormalHeavy);
}

ValueRange value_range(std::span<const float> data) {
  ValueRange r;
  if (data.empty()) return r;
  float mn = data[0], mx = data[0];
#pragma omp parallel for reduction(min : mn) reduction(max : mx)
  for (size_t i = 0; i < data.size(); ++i) {
    mn = std::min(mn, data[i]);
    mx = std::max(mx, data[i]);
  }
  r.min = mn;
  r.max = mx;
  return r;
}

double abs_bound_from_rel(std::span<const float> data, double rel_bound) {
  const double span = value_range(data).span();
  // Degenerate constant fields still need a positive bound to quantize with.
  return span > 0.0 ? rel_bound * span : rel_bound;
}

double compression_ratio(size_t original_bytes, size_t compressed_bytes) {
  if (compressed_bytes == 0) return 0.0;
  return static_cast<double>(original_bytes) / static_cast<double>(compressed_bytes);
}

bool TransportStats::clean() const {
  return faults_injected == 0 && retransmits == 0 && corrupt_frames == 0 &&
         duplicate_discards == 0 && timeout_waits == 0 && raw_fallbacks == 0 && stalls == 0;
}

TransportStats& TransportStats::operator+=(const TransportStats& other) {
  frames_sent += other.frames_sent;
  frames_accepted += other.frames_accepted;
  faults_injected += other.faults_injected;
  retransmits += other.retransmits;
  corrupt_frames += other.corrupt_frames;
  duplicate_discards += other.duplicate_discards;
  timeout_waits += other.timeout_waits;
  raw_fallbacks += other.raw_fallbacks;
  stalls += other.stalls;
  return *this;
}

TransportStats TransportStats::operator-(const TransportStats& earlier) const {
  TransportStats d;
  d.frames_sent = frames_sent - earlier.frames_sent;
  d.frames_accepted = frames_accepted - earlier.frames_accepted;
  d.faults_injected = faults_injected - earlier.faults_injected;
  d.retransmits = retransmits - earlier.retransmits;
  d.corrupt_frames = corrupt_frames - earlier.corrupt_frames;
  d.duplicate_discards = duplicate_discards - earlier.duplicate_discards;
  d.timeout_waits = timeout_waits - earlier.timeout_waits;
  d.raw_fallbacks = raw_fallbacks - earlier.raw_fallbacks;
  d.stalls = stalls - earlier.stalls;
  return d;
}

TransportStats total_transport(std::span<const TransportStats> per_rank) {
  TransportStats sum;
  for (const TransportStats& s : per_rank) sum += s;
  return sum;
}

std::string describe(const TransportStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sent=%llu accepted=%llu faults=%llu retx=%llu corrupt=%llu dup=%llu "
                "timeout=%llu raw=%llu stalls=%llu",
                static_cast<unsigned long long>(s.frames_sent),
                static_cast<unsigned long long>(s.frames_accepted),
                static_cast<unsigned long long>(s.faults_injected),
                static_cast<unsigned long long>(s.retransmits),
                static_cast<unsigned long long>(s.corrupt_frames),
                static_cast<unsigned long long>(s.duplicate_discards),
                static_cast<unsigned long long>(s.timeout_waits),
                static_cast<unsigned long long>(s.raw_fallbacks),
                static_cast<unsigned long long>(s.stalls));
  return buf;
}

bool HealthStats::clean() const {
  return crashes == 0 && hangs == 0 && straggles == 0 && suspects == 0 &&
         dead_declared == 0 && failed_agreements == 0 && stale_discards == 0 &&
         shrinks == 0 && retries == 0;
}

HealthStats& HealthStats::operator+=(const HealthStats& other) {
  crashes += other.crashes;
  hangs += other.hangs;
  straggles += other.straggles;
  suspects += other.suspects;
  dead_declared += other.dead_declared;
  agreements += other.agreements;
  failed_agreements += other.failed_agreements;
  stale_discards += other.stale_discards;
  shrinks += other.shrinks;
  retries += other.retries;
  return *this;
}

HealthStats total_health(std::span<const HealthStats> per_rank) {
  HealthStats sum;
  for (const HealthStats& s : per_rank) sum += s;
  return sum;
}

std::string describe(const HealthStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "crashes=%llu hangs=%llu straggles=%llu suspects=%llu dead=%llu "
                "agree=%llu failed=%llu stale=%llu shrink=%llu retry=%llu",
                static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.hangs),
                static_cast<unsigned long long>(s.straggles),
                static_cast<unsigned long long>(s.suspects),
                static_cast<unsigned long long>(s.dead_declared),
                static_cast<unsigned long long>(s.agreements),
                static_cast<unsigned long long>(s.failed_agreements),
                static_cast<unsigned long long>(s.stale_discards),
                static_cast<unsigned long long>(s.shrinks),
                static_cast<unsigned long long>(s.retries));
  return buf;
}

bool IntegrityStats::clean() const {
  return mismatches == 0 && retransmit_recoveries == 0 && recomputes == 0 &&
         raw_fallbacks == 0 && poisoned_combines == 0;
}

IntegrityStats& IntegrityStats::operator+=(const IntegrityStats& other) {
  digests_checked += other.digests_checked;
  mismatches += other.mismatches;
  retransmit_recoveries += other.retransmit_recoveries;
  recomputes += other.recomputes;
  raw_fallbacks += other.raw_fallbacks;
  poisoned_combines += other.poisoned_combines;
  return *this;
}

IntegrityStats total_integrity(std::span<const IntegrityStats> per_rank) {
  IntegrityStats sum;
  for (const IntegrityStats& s : per_rank) sum += s;
  return sum;
}

std::string describe(const IntegrityStats& s) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "checked=%llu mismatch=%llu retx=%llu recompute=%llu raw=%llu poison=%llu",
                static_cast<unsigned long long>(s.digests_checked),
                static_cast<unsigned long long>(s.mismatches),
                static_cast<unsigned long long>(s.retransmit_recoveries),
                static_cast<unsigned long long>(s.recomputes),
                static_cast<unsigned long long>(s.raw_fallbacks),
                static_cast<unsigned long long>(s.poisoned_combines));
  return buf;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = values[0];
  s.max = values[0];
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(values.size()));
  return s;
}

}  // namespace hzccl
