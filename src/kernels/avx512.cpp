// AVX-512 kernel variants (F/BW/DQ/VL/VBMI).  Built with the full per-file
// flag set (see CMakeLists.txt); stubs out when the compiler lacks them.
//
// Hand-vectorized here: the VPERMB + VPMULTISHIFTQB unpack (64 values per
// iteration, widths 1..8), the whole-block codec on 32-value groups (the
// fixed-length block's size), the closed-form digest fold, the 8-lane int64
// residual merge, and the fused block pass in one masked walk (VCVTPD2QQ,
// the exact llrint equivalent).  Pack inherits the AVX2 PEXT codec through
// the table overlay — PEXT already saturates the port the wider permutes
// would compete for — and so does the SSE4.2 CRC-32C.
#include "hzccl/kernels/dispatch.hpp"
#include "kernel_impls.hpp"

namespace hzccl::kernels::detail {

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VBMI__) && defined(__AVX2__) &&  \
    defined(__BMI2__)

namespace {

template <int... Xs>
void fill_unpack(KernelTable& t, std::integer_sequence<int, Xs...>) {
  ((t.unpack[Xs + 1] = &unpack_multishift<Xs + 1>), ...);
}

}  // namespace

bool populate_avx512(KernelTable& t) {
  t.level = DispatchLevel::kAvx512;
  fill_unpack(t, std::make_integer_sequence<int, 8>{});
  t.hz_combine_residuals = &combine_avx512_body;
  t.fz_quantize_predict = &quantize_predict_avx512_body;
  t.szx_scan = &szx_scan_avx512_body;
  t.decode_block = &decode_block_avx512_body;
  t.encode_block = &encode_block_avx512_body;
  t.digest_block = &digest_block_avx512_body;
  return true;
}

#else

bool populate_avx512(KernelTable&) { return false; }

#endif

}  // namespace hzccl::kernels::detail
