// Per-layer measurement of one workload: the traced rebuild of each op from
// public calls, timed replays of each module's public functions on the
// workload's own data, and the attribution computed from the two.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// What the untraced ops interleaved with the traced ones measured.
struct UntracedPass {
  double wall_ms_p50 = 0.0;
  double wall_ms_p90 = 0.0;
  double cpu_ms_p50 = 0.0;    ///< raw process CPU time, not normalised
  double yardstick_ms = 0.0;  ///< median CPU time of the yardstick job
  double pool_allocs_per_op = 0.0;
  double minflt_per_op = 0.0;
};

struct LayerReport {
  std::vector<Metric> metrics;  ///< the per-layer set, same names on every workload
  uint64_t attempted = 0;       ///< traced ops
  uint64_t failed = 0;
  /// Every traced op produced the untraced op's outputs and virtual times
  /// byte for byte, and every exact count repeated across traced ops.
  bool identical = true;
  std::string error;
};

/// Traced measurement of one case.  The caller alternates untraced ops with
/// traced_op(), so drift over the run affects both alike, then calls finish.
class LayerProbe {
 public:
  virtual ~LayerProbe() = default;
  /// One op rebuilt from public calls with spans around each layer, its
  /// outputs checked against the untraced op's.
  virtual void traced_op() = 0;
  /// Replays each layer's public functions on the workload's data (each for
  /// at least `replay_s`) and assembles the per-layer metrics.
  virtual LayerReport finish(const UntracedPass& untraced, double replay_s) = 0;
};

std::unique_ptr<LayerProbe> make_probe(Case& c, SpanRecorder& spans);

}  // namespace e2e
