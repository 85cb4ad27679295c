// Tests for the traditional DOC (decompress-operate-compress) workflow: the
// baseline hZ-dynamic is measured against, including its re-quantization
// error penalty relative to the homomorphic path.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/doc.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

CompressedBuffer compress(const std::vector<float>& data, double eb) {
  FzParams p;
  p.abs_error_bound = eb;
  return fz_compress(data, p);
}

TEST(DocAdd, BoundedErrorVersusExactSum) {
  const std::vector<float> f0 = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kHurricane, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);

  const CompressedBuffer sum = doc_add(compress(f0, eb), compress(f1, eb));
  const std::vector<float> got = fz_decompress(sum);
  // Operand errors (eb each) + the recompression's fresh quantization (eb):
  // 3eb total, the DOC accuracy tax.
  for (size_t i = 0; i < got.size(); ++i) {
    const double exact = static_cast<double>(f0[i]) + f1[i];
    ASSERT_LE(std::abs(got[i] - exact), 3.0 * eb * (1.0 + 1e-5));
  }
}

TEST(DocAdd, HomomorphicIsAtLeastAsAccurate) {
  // Table VI: hZ-dynamic "slightly surpasses" the DOC path in NRMSE because
  // it skips the recompression quantization.
  const std::vector<float> f0 = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kNyx, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer b = compress(f1, eb);

  std::vector<float> exact(f0.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    exact[i] = static_cast<float>(static_cast<double>(f0[i]) + f1[i]);
  }
  const double doc_nrmse = compare(exact, fz_decompress(doc_add(a, b))).nrmse;
  const double hz_nrmse = compare(exact, fz_decompress(hz_add(a, b))).nrmse;
  EXPECT_LE(hz_nrmse, doc_nrmse * (1.0 + 1e-9));
}

TEST(DocAdd, BreakdownAccumulates) {
  const std::vector<float> f0 = generate_field(DatasetId::kCesmAtm, Scale::kTiny, 0);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  DocBreakdown breakdown;
  doc_add(a, a, &breakdown);
  EXPECT_GT(breakdown.decompress_seconds, 0.0);
  EXPECT_GT(breakdown.compress_seconds, 0.0);
  EXPECT_GE(breakdown.compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(breakdown.total(), breakdown.decompress_seconds +
                                          breakdown.compute_seconds +
                                          breakdown.compress_seconds);
}

TEST(DocAdd, LayoutMismatchThrows) {
  const std::vector<float> f(1000, 1.0f);
  const std::vector<float> g(999, 1.0f);
  EXPECT_THROW(doc_add(compress(f, 1e-3), compress(g, 1e-3)), LayoutMismatchError);
}

TEST(DocAdd, OutputLayoutMatchesOperands) {
  const std::vector<float> f0 = generate_field(DatasetId::kRtmSim2, Scale::kTiny, 0);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer sum = doc_add(a, a);
  EXPECT_TRUE(layout_compatible(parse_fz(a.bytes), parse_fz(sum.bytes)));
}

}  // namespace
}  // namespace hzccl
