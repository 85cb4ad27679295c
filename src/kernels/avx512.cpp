// AVX-512 kernel variants (F/BW/DQ/VL/VBMI with PCLMUL and VPCLMULQDQ).
// Built with the full per-file flag set (see CMakeLists.txt); stubs out
// when the compiler lacks them.
//
// Hand-vectorized here: the whole-block codec on 32-value groups (the
// fixed-length block's size; VPERMB + VPMULTISHIFTQB remainder unpack),
// whose group decoder and encoder also serve the three chunk walks
// (in-register int64 scan and dequantize with the chain carry kept across
// blocks, the digest sums reduced once per chunk, the int32 residual merge
// encoded from registers), the 16-lane SZx scan, the fused block pass in one
// masked walk (VCVTPD2QQ, the exact llrint equivalent), and the CRC-32C,
// which folds 256 bytes per step with VPCLMULQDQ and finishes with the
// crc32 instruction.
#include "hzccl/kernels/dispatch.hpp"
#include "kernel_impls.hpp"

namespace hzccl::kernels::detail {

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) &&   \
    defined(__AVX512VL__) && defined(__AVX512VBMI__) && defined(__AVX2__) &&    \
    defined(__BMI2__) && defined(__PCLMUL__) && defined(__VPCLMULQDQ__)

bool populate_avx512(KernelTable& t) {
  t.level = DispatchLevel::kAvx512;
  t.fz_quantize_predict = &quantize_predict_avx512_body;
  t.szx_scan = &szx_scan_avx512_body;
  t.crc32c = &crc32c_vpclmul_body;
  t.decode_block = &decode_block_avx512_body;
  t.encode_block = &encode_block_avx512_body;
  t.decompress_chunk = &decompress_chunk_avx512_body;
  t.fold_chunk = &fold_chunk_avx512_body;
  t.combine_chunk = &combine_chunk_avx512_body;
  t.compress_chunk = &compress_chunk_avx512_body;
  return true;
}

#else

bool populate_avx512(KernelTable&) { return false; }

#endif

}  // namespace hzccl::kernels::detail
