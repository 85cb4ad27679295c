// Per-rank virtual clock with component accounting.
//
// Functional collectives in this repo move real bytes between rank threads,
// but elapsed time on a 1-core host is meaningless for multi-node claims, so
// every communication and compute step *advances a virtual clock* instead:
// communication by the network model, computation by the cost model.  The
// bucket totals feed the paper's breakdown analyses (Fig 2, Table VII:
// DPR+CPT+CPR vs MPI vs OTHER).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>

namespace hzccl::simmpi {

enum class CostBucket : int {
  kMpi = 0,   ///< network transfer + synchronization time
  kCpr = 1,   ///< compression
  kDpr = 2,   ///< decompression
  kCpt = 3,   ///< raw (uncompressed) reduction arithmetic
  kHpr = 4,   ///< homomorphic processing of one compressed block pair
  kOther = 5, ///< buffer management and everything else
};
inline constexpr int kNumBuckets = 6;

std::string bucket_name(CostBucket b);

/// Final clock state of one rank.
struct ClockReport {
  double total_seconds = 0.0;
  std::array<double, kNumBuckets> bucket_seconds{};

  double operator[](CostBucket b) const { return bucket_seconds[static_cast<int>(b)]; }
  /// DPR+CPT+CPR+HPR — the paper's "compression-related" share.
  double doc_related() const;
  /// Percentage of total, 0 if the clock never advanced.
  double percent(CostBucket b) const;

  /// The slower of two rank reports, whole: its total is the collective's
  /// completion time and its buckets the breakdown (not an element-wise max).
  static ClockReport max_of(const ClockReport& a, const ClockReport& b);
};

class VirtualClock {
 public:
  double now() const { return now_; }

  /// Spend `dt` seconds of local work attributed to `bucket`.
  void advance(double dt, CostBucket bucket) {
    if (dt <= 0.0) return;
    now_ += dt;
    buckets_[static_cast<int>(bucket)] += dt;
  }

  /// Wait until absolute virtual time `t` (no-op when already past);
  /// the waiting time lands in `bucket` (typically kMpi).
  void advance_to(double t, CostBucket bucket) { advance(t - now_, bucket); }

  [[nodiscard]] ClockReport report() const {
    ClockReport r;
    r.total_seconds = now_;
    r.bucket_seconds = buckets_;
    return r;
  }

 private:
  double now_ = 0.0;
  std::array<double, kNumBuckets> buckets_{};
};

}  // namespace hzccl::simmpi
