// RoundSim tests: the analytic scalability model's internal consistency and
// its cross-validation against full functional simmpi runs at small scale —
// the evidence that the 512-node figures extrapolate something real.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hzccl/cluster/autotune.hpp"
#include "hzccl/cluster/roundsim.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/trace/trace.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::cluster {
namespace {

CompressionProfile make_profile(DatasetId id = DatasetId::kHurricane, int max_depth = 16) {
  const auto fields = generate_fields(id, Scale::kTiny, 4);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(fields[0], 1e-3);
  return CompressionProfile::measure(fields, params, max_depth);
}

TEST(CompressionProfileTest, MeasuresMonotoneDepthCoverage) {
  const CompressionProfile p = make_profile();
  EXPECT_EQ(p.ratio.size(), 16u);
  EXPECT_EQ(p.hz_stats.size(), 15u);
  for (double r : p.ratio) EXPECT_GT(r, 1.0);
}

TEST(CompressionProfileTest, DepthLookupClamps) {
  const CompressionProfile p = make_profile();
  EXPECT_DOUBLE_EQ(p.ratio_at_depth(0), p.ratio.front());
  EXPECT_DOUBLE_EQ(p.ratio_at_depth(1), p.ratio.front());
  EXPECT_DOUBLE_EQ(p.ratio_at_depth(999), p.ratio.back());
}

TEST(CompressionProfileTest, StatsScaleWithElements) {
  const CompressionProfile p = make_profile();
  const auto small = p.stats_at_depth(2, p.sample_elements / 2);
  const auto full = p.stats_at_depth(2, p.sample_elements);
  EXPECT_NEAR(static_cast<double>(small.blocks()),
              static_cast<double>(full.blocks()) / 2.0,
              static_cast<double>(full.blocks()) * 0.02 + 2.0);
}

TEST(CompressionProfileTest, EmptyInputsRejected) {
  FzParams params;
  EXPECT_THROW(CompressionProfile::measure({}, params, 4), Error);
  CompressionProfile empty;
  EXPECT_THROW(empty.ratio_at_depth(1), Error);
  EXPECT_THROW(empty.stats_at_depth(1, 100), Error);
}

class ModelTest : public ::testing::Test {
 protected:
  CompressionProfile profile_ = make_profile();
  simmpi::NetModel net_ = simmpi::NetModel::omnipath_100g();
  simmpi::CostModel cost_ = simmpi::CostModel::paper_broadwell();
  size_t total_bytes_ = size_t{64} << 20;

  double seconds(Kernel k, Op op, int n) {
    return model_collective(k, op, n, total_bytes_, profile_, net_, cost_).seconds;
  }
};

TEST_F(ModelTest, OrderingMatchesThePaper) {
  for (int n : {8, 64, 512}) {
    for (Op op : {Op::kReduceScatter, Op::kAllreduce}) {
      const double mpi = seconds(Kernel::kMpi, op, n);
      const double cc_mt = seconds(Kernel::kCCollMultiThread, op, n);
      const double hz_mt = seconds(Kernel::kHzcclMultiThread, op, n);
      const double cc_st = seconds(Kernel::kCCollSingleThread, op, n);
      const double hz_st = seconds(Kernel::kHzcclSingleThread, op, n);
      EXPECT_LT(hz_mt, cc_mt) << "n=" << n;
      EXPECT_LT(hz_st, cc_st) << "n=" << n;
      EXPECT_LT(cc_mt, mpi) << "n=" << n;
      EXPECT_LT(hz_mt, hz_st) << "n=" << n;
    }
  }
}

TEST_F(ModelTest, ComponentsSumToTotal) {
  const ModelResult r = model_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, 64,
                                         total_bytes_, profile_, net_, cost_);
  EXPECT_NEAR(r.seconds,
              r.mpi_seconds + r.cpr_seconds + r.dpr_seconds + r.cpt_seconds + r.hpr_seconds,
              1e-12);
  EXPECT_GT(r.hpr_seconds, 0.0);
  EXPECT_GT(r.cpr_seconds, 0.0);
  EXPECT_EQ(r.cpt_seconds, 0.0);  // no raw reduce in the homomorphic stack
}

TEST_F(ModelTest, RawStackHasNoCompressionCost) {
  const ModelResult r = model_collective(Kernel::kMpi, Op::kAllreduce, 16, total_bytes_,
                                         profile_, net_, cost_);
  EXPECT_EQ(r.cpr_seconds, 0.0);
  EXPECT_EQ(r.dpr_seconds, 0.0);
  EXPECT_EQ(r.hpr_seconds, 0.0);
  EXPECT_GT(r.cpt_seconds, 0.0);
}

TEST_F(ModelTest, RejectsDegenerateScale) {
  EXPECT_THROW(seconds(Kernel::kMpi, Op::kAllreduce, 1), Error);
}

TEST_F(ModelTest, AllreduceCostsMoreThanReduceScatter) {
  for (Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    EXPECT_GT(seconds(k, Op::kAllreduce, 64), seconds(k, Op::kReduceScatter, 64));
  }
}

TEST_F(ModelTest, CrossValidatesAgainstFunctionalSimulation) {
  // The load-bearing test: at small scale, the closed-form model must agree
  // with the functional thread-per-rank simulation it extrapolates.
  const int n = 8;
  const size_t elements = 65536;
  const auto fields = generate_fields(DatasetId::kHurricane, Scale::kTiny, n);
  const double eb = abs_bound_from_rel(fields[0], 1e-3);

  JobConfig config;
  config.nranks = n;
  config.abs_error_bound = eb;
  config.net = net_;
  config.cost = cost_;
  const RankInputFn inputs = [&](int rank) {
    std::vector<float> f = fields[rank];
    f.resize(elements);
    return f;
  };

  // Build the profile from the same fields at the collective's block size
  // so ratios match what the functional run transmits.
  std::vector<std::vector<float>> block_fields;
  const Range block0 = coll::ring_block_range(elements, n, 0);
  for (const auto& f : fields) {
    block_fields.emplace_back(f.begin(), f.begin() + static_cast<ptrdiff_t>(block0.size()));
  }
  FzParams params;
  params.abs_error_bound = eb;
  const CompressionProfile profile = CompressionProfile::measure(block_fields, params, n + 1);

  for (Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    const double functional =
        run_collective(k, Op::kAllreduce, config, inputs).slowest.total_seconds;
    const double modeled = model_collective(k, Op::kAllreduce, n, elements * sizeof(float),
                                            profile, net_, cost_)
                               .seconds;
    EXPECT_NEAR(modeled, functional, 0.40 * functional)
        << kernel_name(k) << ": modeled=" << modeled << " functional=" << functional;
  }
}

// ---------------------------------------------------------------------------
// Allreduce schedules: the model prices what the functional path runs.
// ---------------------------------------------------------------------------

void expect_same_model(const ModelResult& a, const ModelResult& b, const std::string& where) {
  EXPECT_EQ(a.seconds, b.seconds) << where;
  EXPECT_EQ(a.mpi_seconds, b.mpi_seconds) << where;
  EXPECT_EQ(a.cpr_seconds, b.cpr_seconds) << where;
  EXPECT_EQ(a.dpr_seconds, b.dpr_seconds) << where;
  EXPECT_EQ(a.cpt_seconds, b.cpt_seconds) << where;
  EXPECT_EQ(a.hpr_seconds, b.hpr_seconds) << where;
  EXPECT_EQ(a.vrf_seconds, b.vrf_seconds) << where;
}

TEST(RoundSimAlgos, CCollPricesEveryScheduleAsTheRingItRuns) {
  // C-Coll jobs always run the ring (resolve_job_algo), so every requested
  // schedule is priced as the ring, and the selector never picks one that
  // C-Coll does not run.
  const CompressionProfile profile = make_profile(DatasetId::kHurricane, 8);
  const simmpi::CostModel cost = simmpi::CostModel::paper_broadwell();
  struct Point {
    int nranks;
    size_t bytes;
    simmpi::NetModel net;
  };
  const std::vector<Point> points = {{16, size_t{16} << 10, simmpi::NetModel::omnipath_100g_nodes(8)},
                                     {64, size_t{8} << 20, simmpi::NetModel::omnipath_100g()}};
  for (const Point& p : points) {
    for (const Kernel k : {Kernel::kCCollMultiThread, Kernel::kCCollSingleThread}) {
      for (const coll::VerifyPolicy v : {coll::VerifyPolicy::kOff, coll::VerifyPolicy::kPerRound}) {
        const auto model = [&](coll::AllreduceAlgo algo) {
          return model_allreduce_algo(k, algo, p.nranks, p.bytes, profile, p.net, cost, v);
        };
        const ModelResult ring = model(coll::AllreduceAlgo::kRing);
        for (const auto algo : {coll::AllreduceAlgo::kRecursiveDoubling,
                                coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kTwoLevel}) {
          expect_same_model(model(algo), ring,
                            kernel_name(k) + " " + coll::allreduce_algo_name(algo) + " N=" +
                                std::to_string(p.nranks));
        }
      }
    }
  }

  const std::vector<float> sample = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  JobConfig config;
  config.nranks = 16;
  config.net = simmpi::NetModel::omnipath_100g_nodes(8);
  config.abs_error_bound = abs_bound_from_rel(sample, 1e-3);
  for (const Kernel k : {Kernel::kCCollMultiThread, Kernel::kCCollSingleThread}) {
    const AlgoSelection sel = choose_allreduce_algo(sample, k, size_t{16} << 10, config);
    EXPECT_EQ(sel.algo, coll::AllreduceAlgo::kRing) << kernel_name(k) << ": " << sel.summary();
  }
}

TEST(RoundSimAlgos, RecursiveDoublingUnfoldsWhatTheScheduleSends) {
  // A non-power-of-two rank count folds into p2 ranks and unfolds at the
  // end.  The hZ unfold sends the fully reduced stream (depth N); the raw
  // unfold sends floats, and like every raw exchange costs two
  // single-threaded digest walks, the sender's trailer and the receiver's
  // recheck.  Power-of-two counts have no fold and no unfold.
  const CompressionProfile profile = make_profile(DatasetId::kHurricane, 16);
  const simmpi::NetModel net = simmpi::NetModel::omnipath_100g();
  const simmpi::CostModel cost = simmpi::CostModel::paper_broadwell();
  const size_t bytes = size_t{8} << 20;
  const double total = static_cast<double>(bytes);
  for (const int n : {6, 8, 12, 16}) {
    int p2 = 1;
    while (p2 * 2 <= n) p2 *= 2;
    const bool fold = p2 != n;
    const auto transfer = [&](double b) {
      return net.transfer_seconds(static_cast<size_t>(b), net.congestion_flows(n));
    };
    // The fold exchange at depth 1, then one exchange per doubling step.
    double mpi = fold ? transfer(total / profile.ratio_at_depth(1)) : 0.0;
    int exchanges = fold ? 1 : 0;
    for (int mask = 1, depth = fold ? 2 : 1; mask < p2; mask <<= 1, depth *= 2) {
      mpi += transfer(total / profile.ratio_at_depth(depth));
      ++exchanges;
    }
    if (fold) mpi += transfer(total / profile.ratio_at_depth(n));

    const ModelResult hz = model_allreduce_algo(Kernel::kHzcclMultiThread,
                                                coll::AllreduceAlgo::kRecursiveDoubling, n, bytes,
                                                profile, net, cost);
    EXPECT_DOUBLE_EQ(hz.mpi_seconds, mpi) << "N=" << n;

    const ModelResult raw =
        model_allreduce_algo(Kernel::kMpi, coll::AllreduceAlgo::kRecursiveDoubling, n, bytes,
                             profile, net, cost, coll::VerifyPolicy::kPerRound);
    const int walks = 2 * (exchanges + (fold ? 1 : 0));
    EXPECT_DOUBLE_EQ(raw.vrf_seconds,
                     walks * cost.seconds_digest_verify(bytes, simmpi::Mode::kSingleThread))
        << "N=" << n;
  }
}

// RoundSim prices every digest walk execution charges: for every stack,
// schedule and verify policy, the modeled vrf_seconds is the slowest rank's
// summed kVerify time.  Raw walks run over payload bytes, so the match is
// exact up to rounding.  Compressed walks are priced at the profile's
// stream sizes; to pin the walks rather than the size model, every rank
// contributes the same vector of n equal ring blocks, so a stream's size
// depends only on its depth and length, and the profile is measured with
// the collective's codec parameters at the length of the schedule's streams
// (a ring block; the whole vector for hZ recursive doubling), within 2%.
TEST(RoundSimAlgos, PricesTheDigestWalksExecutionCharges) {
  const simmpi::NetModel net = simmpi::NetModel::omnipath_100g();
  const simmpi::CostModel cost = simmpi::CostModel::paper_broadwell();
  const std::vector<float> field = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  const double eb = abs_bound_from_rel(field, 1e-3);
  for (const int n : {4, 8}) {
    const std::vector<float> block(field.begin(),
                                   field.begin() + static_cast<ptrdiff_t>(field.size()) / n);
    std::vector<float> vec;
    for (int b = 0; b < n; ++b) vec.insert(vec.end(), block.begin(), block.end());
    const RankInputFn inputs = [&](int) { return vec; };
    for (const Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
      for (const auto v : {coll::VerifyPolicy::kFinal, coll::VerifyPolicy::kPerRound}) {
        for (const coll::AllreduceAlgo a :
             {coll::AllreduceAlgo::kAuto, coll::AllreduceAlgo::kRing,
              coll::AllreduceAlgo::kRecursiveDoubling, coll::AllreduceAlgo::kRabenseifner}) {
          const bool rs = a == coll::AllreduceAlgo::kAuto;  // stands for the reduce-scatter
          JobConfig config;
          config.nranks = n;
          config.net = net;
          config.cost = cost;
          config.abs_error_bound = eb;
          config.verify = v;
          config.algo = rs ? coll::AllreduceAlgo::kRing : a;
          config.trace.enabled = true;
          const JobResult run =
              run_collective(k, rs ? Op::kReduceScatter : Op::kAllreduce, config, inputs);
          size_t slowest = 0;
          for (size_t r = 0; r < run.per_rank.size(); ++r) {
            if (run.per_rank[r].total_seconds > run.per_rank[slowest].total_seconds) slowest = r;
          }
          double executed = 0.0;
          for (const trace::Event& e : run.trace.ranks[slowest]) {
            if (e.kind == trace::EventKind::kVerify) executed += e.duration();
          }

          const bool whole =
              k == Kernel::kHzcclMultiThread && a == coll::AllreduceAlgo::kRecursiveDoubling;
          const CompressionProfile profile = CompressionProfile::measure(
              std::vector<std::vector<float>>(static_cast<size_t>(n), whole ? vec : block),
              config.collective_config(kernel_mode(k)).fz_params(0), n);
          const size_t bytes = vec.size() * sizeof(float);
          const ModelResult model =
              rs ? model_collective(k, Op::kReduceScatter, n, bytes, profile, net, cost, v)
                 : model_allreduce_algo(k, a, n, bytes, profile, net, cost, v);
          EXPECT_NEAR(model.vrf_seconds, executed, (k == Kernel::kMpi ? 1e-9 : 0.02) * executed)
              << kernel_name(k) << " " << (rs ? "reduce-scatter" : coll::allreduce_algo_name(a))
              << " verify=" << coll::verify_policy_name(v) << " N=" << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hzccl::cluster
