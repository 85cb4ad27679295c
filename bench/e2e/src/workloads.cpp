#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "hzccl/collectives/hzccl_coll.hpp"
#include "hzccl/collectives/raw.hpp"
#include "hzccl/stats/metrics.hpp"

namespace e2e {
namespace {

using namespace hzccl;

void raw_ring_allreduce(simmpi::Comm& comm, std::span<const float> input,
                        std::vector<float>& output, const coll::CollectiveConfig& config,
                        HzPipelineStats* /*stats*/) {
  coll::raw_allreduce(comm, input, output, config);
}

/// Rank `rank`'s input: `elements` values of the dataset's field 0 from
/// `offset` (tiled), times the library's member amplitude 1 + 0.05 rank,
/// times a 5% smooth texture drawn from `texture_seed`.  The shared field
/// fixes where the data is active, so the work per op barely moves with the
/// seed; the texture is what the seed changes.  (The library's own
/// correlated family varies only the amplitude, with member % 16, so its
/// members S*64 + rank would hand every seed the same inputs.)
std::vector<float> member(const std::vector<float>& field, size_t offset, size_t elements,
                          int rank, uint64_t texture_seed) {
  const std::vector<float> texture = smooth_noise_field(Dims{elements, 1, 1}, texture_seed, 4, 1);
  const float amplitude = 1.0f + 0.05f * static_cast<float>(rank % 16);
  std::vector<float> out(elements);
  for (size_t i = 0; i < elements; ++i) {
    out[i] = field[(offset + i) % field.size()] * amplitude * (1.0f + 0.05f * texture[i]);
  }
  return out;
}

/// Texture seed of member (seed * 64 + rank) for job `job` of input variant
/// `variant` (variant < 256, job < 65536).
uint64_t texture_seed(uint64_t seed, int variant, int job, int rank) {
  return ((seed * 64 + static_cast<uint64_t>(rank)) << 24) |
         (static_cast<uint64_t>(variant) << 16) | static_cast<uint64_t>(job);
}

RankInputFn serve(std::shared_ptr<const std::vector<std::vector<float>>> inputs) {
  return [inputs = std::move(inputs)](int rank) { return (*inputs)[static_cast<size_t>(rank)]; };
}

/// One tenant of the sched-mix batch: `jobs` same-shape allreduces placed at
/// fleet rank `first_rank + (i % placements) * rank_step`, arriving
/// `spacing_s` apart in virtual time.
struct Tenant {
  const char* name;
  Kernel kernel;
  coll::AllreduceAlgo algo;
  DatasetId dataset;
  Scale scale;
  size_t elements;
  int nranks;
  int jobs;
  int first_rank;
  int placements;
  int rank_step;
  double spacing_s;
  bool fusable;
};

// Two gradient-bucket tenants whose 16 KiB ring allreduces arrive 10 us
// apart: the first 11 of each fall inside the 100 us fusion window and fuse,
// the 12th runs alone.  A latency tenant of unfusable 2 KiB raw
// recursive-doubling jobs, and a tenant of 256 KiB two-level jobs that
// span two nodes each.
constexpr Tenant kMix[] = {
    {"grad-a", Kernel::kHzcclMultiThread, coll::AllreduceAlgo::kRing, DatasetId::kHurricane,
     Scale::kTiny, 4096, 16, 12, 0, 1, 0, 10e-6, true},
    {"grad-b", Kernel::kHzcclMultiThread, coll::AllreduceAlgo::kRing, DatasetId::kHurricane,
     Scale::kTiny, 4096, 16, 12, 16, 1, 0, 10e-6, true},
    {"latency", Kernel::kMpi, coll::AllreduceAlgo::kRecursiveDoubling, DatasetId::kCesmAtm,
     Scale::kTiny, 512, 8, 12, 0, 4, 8, 20e-6, false},
    {"wide", Kernel::kHzcclMultiThread, coll::AllreduceAlgo::kTwoLevel, DatasetId::kCesmAtm,
     Scale::kSmall, 65536, 16, 6, 0, 2, 16, 40e-6, true},
};
constexpr int kFleetRanks = 32;
constexpr int kRanksPerNode = 8;

/// max |out[i] - exact[i]|, or infinity when the sizes differ.
double max_abs_error(std::span<const float> out, std::span<const float> exact) {
  if (out.size() != exact.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    const double e = std::abs(static_cast<double>(out[i]) - static_cast<double>(exact[i]));
    // A NaN must fail the check rather than vanish in max().
    if (!(e <= worst)) worst = std::isnan(e) ? std::numeric_limits<double>::infinity() : e;
  }
  return worst;
}

}  // namespace

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

const std::vector<Workload>& workloads() {
  using coll::AllreduceAlgo;
  using coll::VerifyPolicy;
  // Why each workload was chosen is recorded in BENCHMARK.json and README.md.
  // The variant counts keep the input-dependent end-to-end values steady
  // across seeds: hz-rd-small's error maximum over 16 x 4096 outputs rather
  // than 4096, and sched-mix's makespan, which jumps by up to 1% with small
  // input changes as contended transfers reorder, as a mean over 8 batches.
  // The yardstick's decode rounds are those that steadied each workload's
  // normalised op time most over 30 runs of each (README.md, "The
  // yardstick"): none for the copy- and CRC-bound raw ring, a few for the
  // copy-pipeline hZCCL ring, more for the all-pipeline-4 reduce-scatter and
  // the engine.
  static const std::vector<Workload> table = {
      {.name = "hz-ring-4m", .dataset = DatasetId::kHurricane, .scale = Scale::kMedium,
       .bytes_per_rank = 4u << 20, .stack = &coll::hzccl_allreduce,
       .stack_name = "collectives.hzccl_allreduce", .yardstick_decode_rounds = 2},
      {.name = "raw-ring-4m", .kernel = Kernel::kMpi, .dataset = DatasetId::kHurricane,
       .scale = Scale::kMedium, .bytes_per_rank = 4u << 20, .stack = &raw_ring_allreduce,
       .stack_name = "collectives.raw_allreduce"},
      {.name = "hz-rs-cesm-verify", .op = Op::kReduceScatter, .verify = VerifyPolicy::kPerRound,
       .dataset = DatasetId::kCesmAtm, .scale = Scale::kLarge, .bytes_per_rank = 4u << 20,
       .stack = &coll::hzccl_reduce_scatter, .stack_name = "collectives.hzccl_reduce_scatter",
       .yardstick_decode_rounds = 8},
      {.name = "hz-rd-small", .algo = AllreduceAlgo::kRecursiveDoubling,
       .dataset = DatasetId::kHurricane, .scale = Scale::kTiny, .bytes_per_rank = 16u << 10,
       .variants = 16, .stack = &coll::hzccl_allreduce_recursive_doubling,
       .stack_name = "collectives.hzccl_allreduce_recursive_doubling"},
      {.name = "sched-mix", .nranks = kFleetRanks, .variants = 8, .yardstick_decode_rounds = 10},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Case
// ---------------------------------------------------------------------------

double Case::modeled_s() const {
  double sum = 0.0;
  int run = 0;
  for (int v = 0; v < variants(); ++v) {
    if (!seen(v)) continue;
    sum += modeled_s_[static_cast<size_t>(v)];
    ++run;
  }
  return run ? sum / run : std::numeric_limits<double>::quiet_NaN();
}

void Case::advance() {
  current_ = next_;
  next_ = (next_ + 1) % variants();
}

// ---------------------------------------------------------------------------
// ThreadedCase
// ---------------------------------------------------------------------------

ThreadedCase::ThreadedCase(const Workload& w, uint64_t seed)
    : Case(w.variants), w_(w), variants_(static_cast<size_t>(w.variants)) {
  const std::vector<float> field = generate_field(w.dataset, w.scale, 0);
  const size_t elements = w.bytes_per_rank / sizeof(float);
  config_.nranks = w.nranks;
  config_.abs_error_bound = abs_bound_from_rel(field, kRelBound);
  config_.algo = w.algo;
  config_.verify = w.verify;
  config_.host_threads = 1;

  for (int v = 0; v < w.variants; ++v) {
    Variant& var = variants_[static_cast<size_t>(v)];
    auto inputs = std::make_shared<std::vector<std::vector<float>>>();
    for (int r = 0; r < w.nranks; ++r) {
      inputs->push_back(member(field, 0, elements, r, texture_seed(seed, v, 0, r)));
    }
    var.inputs = inputs;
    var.input = serve(inputs);
    std::vector<float> exact = exact_reduction(w.nranks, var.input);
    if (w.op == Op::kReduceScatter) {
      // run_collective reports rank 0's owned block of the reduce-scatter.
      const Range r =
          coll::ring_block_range(elements, w.nranks, coll::rs_owned_block(0, w.nranks));
      var.expected.assign(exact.begin() + static_cast<ptrdiff_t>(r.begin),
                          exact.begin() + static_cast<ptrdiff_t>(r.end));
    } else {
      var.expected = std::move(exact);
    }
  }
}

void ThreadedCase::op() {
  advance();
  result_ = run_collective(w_.kernel, w_.op, config_, input(current()));
}

Check ThreadedCase::check(int v, const JobResult& result) const {
  Check c;
  c.modeled_s = result.slowest.total_seconds;
  c.err_ratio = max_abs_error(result.rank0_output, variants_[static_cast<size_t>(v)].expected) /
                (config_.abs_error_bound * static_cast<double>(config_.nranks));
  if (!(c.err_ratio <= 1.0)) {
    c.ok = false;
    c.error = "rank 0 output exceeds the error ceiling (ratio " + std::to_string(c.err_ratio) + ")";
  }
  return c;
}

Check ThreadedCase::check() {
  const int v = current();
  Variant& var = variants_[static_cast<size_t>(v)];
  Check c = check(v, result_);
  if (!seen(v)) {
    modeled_s_[static_cast<size_t>(v)] = c.modeled_s;
    var.reference = std::move(result_.rank0_output);
    var.reference_clock = result_.slowest;
  } else if (!same_bytes(result_.rank0_output, var.reference) ||
             result_.slowest.total_seconds != var.reference_clock.total_seconds ||
             result_.slowest.bucket_seconds != var.reference_clock.bucket_seconds) {
    c.ok = false;
    c.error = "output or virtual time differs from the first op on the same inputs";
  }
  result_ = JobResult{};
  return c;
}

double ThreadedCase::input_bytes() const {
  return static_cast<double>(w_.nranks) * static_cast<double>(w_.bytes_per_rank);
}

// ---------------------------------------------------------------------------
// SchedCase
// ---------------------------------------------------------------------------

SchedCase::SchedCase(const Workload& w, uint64_t seed)
    : Case(w.variants), w_(w), variants_(static_cast<size_t>(w.variants)) {
  config_.engine.fleet_ranks = kFleetRanks;
  config_.engine.net = simmpi::NetModel::omnipath_100g_nodes(kRanksPerNode);

  std::map<std::pair<DatasetId, Scale>, std::vector<float>> fields;
  for (int v = 0; v < w.variants; ++v) {
    std::vector<SchedJob>& jobs = variants_[static_cast<size_t>(v)].jobs;
    size_t slice = 0;  // every job reads its own window of the field
    for (const Tenant& t : kMix) {
      std::vector<float>& field = fields[{t.dataset, t.scale}];
      if (field.empty()) field = generate_field(t.dataset, t.scale, 0);
      // One bound per tenant: jobs fuse only when their bounds are equal.
      const double bound = abs_bound_from_rel(field, kRelBound);
      for (int i = 0; i < t.jobs; ++i, ++slice) {
        auto inputs = std::make_shared<std::vector<std::vector<float>>>();
        for (int r = 0; r < t.nranks; ++r) {
          inputs->push_back(member(field, slice * t.elements, t.elements, r,
                                   texture_seed(seed, v, static_cast<int>(slice), r)));
        }
        SchedJob job;
        job.spec.tenant = t.name;
        job.spec.kernel = t.kernel;
        job.spec.op = sched::ICollOp::kAllreduce;
        job.spec.config.nranks = t.nranks;
        job.spec.config.net = config_.engine.net;
        job.spec.config.abs_error_bound = bound;
        job.spec.config.algo = t.algo;
        job.spec.config.host_threads = 1;
        job.spec.input = serve(inputs);
        job.spec.first_rank = t.first_rank + (i % t.placements) * t.rank_step;
        job.spec.enqueue_vtime = static_cast<double>(i) * t.spacing_s;
        job.spec.fusable = t.fusable;
        job.exact = exact_reduction(t.nranks, job.spec.input);
        jobs.push_back(std::move(job));
      }
    }
  }
}

void SchedCase::op() {
  advance();
  last_ = std::make_unique<sched::Scheduler>(config_);
  for (const SchedJob& job : jobs(current())) last_->submit(job.spec);
  last_->run();
}

Check SchedCase::check(int v, const sched::Scheduler& done) const {
  Check c;
  c.modeled_s = done.makespan();
  const std::vector<SchedJob>& batch = jobs(v);
  const std::vector<sched::TenantJobResult>& results = done.results();
  for (size_t i = 0; i < batch.size(); ++i) {
    const sched::TenantJobResult& r = results[i];
    const JobConfig& config = batch[i].spec.config;
    if (!r.completed) {
      c.ok = false;
      c.error = "job " + std::to_string(i) + " did not complete: " + r.error;
      continue;
    }
    const double ratio = max_abs_error(r.rank0_output, batch[i].exact) /
                         (config.abs_error_bound * static_cast<double>(config.nranks));
    c.err_ratio = std::max(c.err_ratio, ratio);
    if (!(ratio <= 1.0)) {
      c.ok = false;
      c.error = "job " + std::to_string(i) + " exceeds the error ceiling (ratio " +
                std::to_string(ratio) + ")";
    }
  }
  return c;
}

Check SchedCase::check() {
  const int v = current();
  Variant& var = variants_[static_cast<size_t>(v)];
  Check c = check(v, *last_);
  const std::vector<sched::TenantJobResult>& results = last_->results();
  if (!seen(v)) {
    modeled_s_[static_cast<size_t>(v)] = c.modeled_s;
    for (const sched::TenantJobResult& r : results) var.reference.push_back(r.rank0_output);
  } else {
    bool match = c.modeled_s == modeled_s_[static_cast<size_t>(v)];
    for (size_t j = 0; j < results.size() && match; ++j) {
      match = same_bytes(results[j].rank0_output, var.reference[j]);
    }
    if (!match) {
      c.ok = false;
      c.error = "outputs or makespan differ from the first batch on the same inputs";
    }
  }
  last_.reset();
  return c;
}

double SchedCase::input_bytes() const {
  double bytes = 0.0;
  for (const SchedJob& job : jobs(0)) {
    bytes += static_cast<double>(job.spec.config.nranks) *
             static_cast<double>(job.exact.size() * sizeof(float));
  }
  return bytes;
}

std::unique_ptr<Case> make_case(const Workload& w, uint64_t seed) {
  if (w.stack) return std::make_unique<ThreadedCase>(w, seed);
  return std::make_unique<SchedCase>(w, seed);
}

}  // namespace e2e
