#include "hzccl/homomorphic/doc.hpp"

#include <vector>

#include "hzccl/util/threading.hpp"
#include "hzccl/util/timer.hpp"

namespace hzccl {

CompressedBuffer doc_add(const CompressedBuffer& a, const CompressedBuffer& b,
                         DocBreakdown* breakdown, int num_threads) {
  const FzView va = parse_fz(a.bytes);
  const FzView vb = parse_fz(b.bytes);
  require_layout_compatible(va, vb);

  Timer timer;
  std::vector<float> da(va.num_elements());
  std::vector<float> db(vb.num_elements());
  fz_decompress(va, da, num_threads);
  fz_decompress(vb, db, num_threads);
  const double t_dpr = timer.seconds();

  timer.reset();
  {
    ScopedNumThreads scoped(num_threads);
#pragma omp parallel for schedule(static)
    for (size_t i = 0; i < da.size(); ++i) da[i] += db[i];
  }
  const double t_cpt = timer.seconds();

  timer.reset();
  FzParams params;
  params.abs_error_bound = va.error_bound();
  params.block_len = va.block_len();
  params.num_chunks = va.num_chunks();
  params.num_threads = num_threads;
  CompressedBuffer out = fz_compress(da, params);
  const double t_cpr = timer.seconds();

  if (breakdown) {
    breakdown->decompress_seconds += t_dpr;
    breakdown->compute_seconds += t_cpt;
    breakdown->compress_seconds += t_cpr;
  }
  return out;
}

}  // namespace hzccl
