#include "hzccl/stats/stream.hpp"

#include <algorithm>

#include "hzccl/util/aligned.hpp"
#include "hzccl/util/timer.hpp"

namespace hzccl {
namespace {

// The kernels follow stream.c: a[], b[], c[] of doubles, scalar 3.0.
void stream_copy(double* c, const double* a, size_t n) {
#pragma omp parallel for
  for (size_t i = 0; i < n; ++i) c[i] = a[i];
}

void stream_scale(double* b, const double* c, size_t n) {
#pragma omp parallel for
  for (size_t i = 0; i < n; ++i) b[i] = 3.0 * c[i];
}

void stream_add(double* c, const double* a, const double* b, size_t n) {
#pragma omp parallel for
  for (size_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
}

void stream_triad(double* a, const double* b, const double* c, size_t n) {
#pragma omp parallel for
  for (size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
}

}  // namespace

double StreamResult::peak() const {
  return std::max({copy_gbps, scale_gbps, add_gbps, triad_gbps});
}

StreamResult run_stream(size_t elements, int trials) {
  AlignedVector<double> a(elements, 1.0), b(elements, 2.0), c(elements, 0.0);
  StreamResult best;
  const double two = 2.0 * static_cast<double>(elements) * sizeof(double);
  const double three = 3.0 * static_cast<double>(elements) * sizeof(double);
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    stream_copy(c.data(), a.data(), elements);
    best.copy_gbps = std::max(best.copy_gbps, gb_per_s(two, timer.seconds()));
    timer.reset();
    stream_scale(b.data(), c.data(), elements);
    best.scale_gbps = std::max(best.scale_gbps, gb_per_s(two, timer.seconds()));
    timer.reset();
    stream_add(c.data(), a.data(), b.data(), elements);
    best.add_gbps = std::max(best.add_gbps, gb_per_s(three, timer.seconds()));
    timer.reset();
    stream_triad(a.data(), b.data(), c.data(), elements);
    best.triad_gbps = std::max(best.triad_gbps, gb_per_s(three, timer.seconds()));
  }
  return best;
}

}  // namespace hzccl
