// AVX2 + BMI2 kernel variants.  Built with per-file -mavx2 -mbmi2 (see
// CMakeLists.txt); when those flags are unavailable the populate hook
// degrades to a stub and the level reports not-compiled.
//
// Hand-vectorized here: the whole-block codec on 8-value PDEP/PEXT groups
// (one instantiation per code length), the SZx scan, the fused block
// pass's classification and prediction (around the scalar llrint: AVX2 has
// no exact packed double->int64 convert), and the three-lane SSE4.2
// CRC-32C (-mavx2 implies -msse4.2; the CPU probe checks sse4.2
// explicitly).  The chunk walks run the PDEP/PEXT block codec block by
// block around the dequantize loop, the closed-form digest fold and the
// integer merge, recompiled under AVX2 so the auto-vectorizer retargets
// them.
#include "hzccl/kernels/dispatch.hpp"
#include "kernel_impls.hpp"

namespace hzccl::kernels::detail {

#if defined(__AVX2__) && defined(__BMI2__)

bool populate_avx2(KernelTable& t) {
  t.level = DispatchLevel::kAvx2;
  t.fz_quantize_predict = &quantize_predict_avx2_body;
  t.szx_scan = &szx_scan_avx2_body;
  t.crc32c = &crc32c_sse42_body;
  t.decode_block = &decode_block_avx2_body;
  t.encode_block = &encode_block_avx2_body;
  t.decompress_chunk = &decompress_chunk_avx2_body;
  t.fold_chunk = &fold_chunk_avx2_body;
  t.combine_chunk = &combine_chunk_avx2_body;
  return true;
}

#else

bool populate_avx2(KernelTable&) { return false; }

#endif

}  // namespace hzccl::kernels::detail
