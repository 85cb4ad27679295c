// Workload table and per-seed cases of the hzccl-e2e benchmark.
//
// A Case is one workload instantiated for one seed: one or more input
// variants (the generated rank inputs, the exact reductions the outputs are
// checked against), and the op the timed loop calls.  Op i runs variant
// i % variants, so values that depend on the inputs (virtual time, error)
// are averaged or maximised over several inputs and move little from seed
// to seed.  The library only ever receives the generated vectors (through
// RankInputFn), never the seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/sched/scheduler.hpp"

namespace e2e {

/// A blocking collective stack function as every rank thread calls it.
using StackFn = void (*)(hzccl::simmpi::Comm&, std::span<const float>, std::vector<float>&,
                         const hzccl::coll::CollectiveConfig&, hzccl::HzPipelineStats*);

struct Workload {
  const char* name = "";
  hzccl::Kernel kernel = hzccl::Kernel::kHzcclMultiThread;
  hzccl::Op op = hzccl::Op::kAllreduce;
  hzccl::coll::AllreduceAlgo algo = hzccl::coll::AllreduceAlgo::kRing;
  hzccl::coll::VerifyPolicy verify = hzccl::coll::VerifyPolicy::kOff;
  hzccl::DatasetId dataset = hzccl::DatasetId::kHurricane;
  hzccl::Scale scale = hzccl::Scale::kTiny;
  size_t bytes_per_rank = 0;
  int nranks = 4;              ///< ranks per op; the fleet size for sched-mix
  int variants = 1;            ///< input variants the ops rotate through
  StackFn stack = nullptr;     ///< nullptr marks the scheduler batch (sched-mix)
  const char* stack_name = "";  ///< span name of the per-rank body
  /// Rounds of the yardstick's decode part after its core (see Yardstick in
  /// main.cpp): more for ops with more block-codec or branchy engine code.
  int yardstick_decode_rounds = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Every workload runs at this error bound relative to its field's range.
inline constexpr double kRelBound = 1e-3;

/// Verdict on one op's outputs.
struct Check {
  bool ok = true;
  /// Max |output - exact reduction| / (abs bound x contributing ranks); an
  /// op above 1.0 broke the collective's error ceiling and fails.
  double err_ratio = 0.0;
  /// Virtual completion time: slowest rank, or the batch makespan.
  double modeled_s = 0.0;
  std::string error;
};

/// True when both hold the same floats bit for bit.
bool same_bytes(std::span<const float> a, std::span<const float> b);

/// One workload instantiated for one seed.
class Case {
 public:
  virtual ~Case() = default;
  /// The timed call on the next variant: one run_collective, or one
  /// scheduler batch.
  virtual void op() = 0;
  /// Checks the last op's outputs (untimed) and releases them.  The first
  /// op of a variant becomes its reference; every later op of that variant
  /// must reproduce the reference's outputs and virtual time bit for bit.
  virtual Check check() = 0;
  /// Rank-input bytes one op reduces, over all ranks and jobs.
  virtual double input_bytes() const = 0;

  int variants() const { return static_cast<int>(modeled_s_.size()); }
  /// Variant the last op ran.
  int current() const { return current_; }
  /// Mean over the variants run so far of each one's virtual completion
  /// time, which is fixed for a variant.
  double modeled_s() const;

 protected:
  explicit Case(int variants)
      : modeled_s_(static_cast<size_t>(variants), std::numeric_limits<double>::quiet_NaN()) {}
  /// Called by op(): moves on to the next variant.
  void advance();
  /// Whether variant v has run (and so has a reference).
  bool seen(int v) const { return !std::isnan(modeled_s_[static_cast<size_t>(v)]); }

  std::vector<double> modeled_s_;  ///< per variant; NaN until its first op

 private:
  int current_ = 0;
  int next_ = 0;
};

/// A blocking collective over simmpi::Runtime threads.
class ThreadedCase final : public Case {
 public:
  ThreadedCase(const Workload& w, uint64_t seed);

  void op() override;
  Check check() override;
  double input_bytes() const override;

  /// Checks any result of this case's collective on variant `v` (the traced
  /// rebuild too).
  Check check(int v, const hzccl::JobResult& result) const;

  const Workload& workload() const { return w_; }
  const hzccl::JobConfig& config() const { return config_; }
  const hzccl::RankInputFn& input(int v) const { return variants_[static_cast<size_t>(v)].input; }
  const std::vector<std::vector<float>>& inputs(int v) const {
    return *variants_[static_cast<size_t>(v)].inputs;
  }
  /// Output and virtual times of variant v's first op, for later ops and
  /// the traced rebuild to match.
  const std::vector<float>& reference_output(int v) const {
    return variants_[static_cast<size_t>(v)].reference;
  }
  const hzccl::simmpi::ClockReport& reference_clock(int v) const {
    return variants_[static_cast<size_t>(v)].reference_clock;
  }

 private:
  struct Variant {
    std::shared_ptr<const std::vector<std::vector<float>>> inputs;
    hzccl::RankInputFn input;
    std::vector<float> expected;  ///< exact reduction over rank 0's output region
    std::vector<float> reference;
    hzccl::simmpi::ClockReport reference_clock;
  };

  const Workload& w_;
  hzccl::JobConfig config_;
  std::vector<Variant> variants_;
  hzccl::JobResult result_;
};

/// One tenant job of the scheduler batch with its exact reduction.
struct SchedJob {
  hzccl::sched::TenantJobSpec spec;
  std::vector<float> exact;
};

/// The multi-tenant batch on the coroutine engine.
class SchedCase final : public Case {
 public:
  SchedCase(const Workload& w, uint64_t seed);

  void op() override;
  Check check() override;
  double input_bytes() const override;

  /// Checks any finished batch of variant `v` (the traced one too).
  Check check(int v, const hzccl::sched::Scheduler& done) const;

  const hzccl::sched::SchedulerConfig& config() const { return config_; }
  const std::vector<SchedJob>& jobs(int v) const { return variants_[static_cast<size_t>(v)].jobs; }
  /// Per-job outputs and makespan of variant v's first batch.
  const std::vector<std::vector<float>>& reference_outputs(int v) const {
    return variants_[static_cast<size_t>(v)].reference;
  }
  double reference_makespan(int v) const { return modeled_s_[static_cast<size_t>(v)]; }

 private:
  struct Variant {
    std::vector<SchedJob> jobs;
    std::vector<std::vector<float>> reference;
  };

  const Workload& w_;
  hzccl::sched::SchedulerConfig config_;
  std::vector<Variant> variants_;
  std::unique_ptr<hzccl::sched::Scheduler> last_;
};

std::unique_ptr<Case> make_case(const Workload& w, uint64_t seed);

}  // namespace e2e
