// Scalar reference table — always compiled with the project's baseline
// flags, no per-file ISA options.  This is the fallback and the oracle the
// conformance tier checks every other level against.
#include "hzccl/kernels/dispatch.hpp"
#include "kernel_impls.hpp"

namespace hzccl::kernels::detail {

bool populate_scalar(KernelTable& t) {
  t.level = DispatchLevel::kScalar;
  t.fz_quantize_predict = &quantize_predict_body;
  t.szx_scan = &szx_scan_body;
  t.crc32c = &crc32c_scalar_body;
  t.decode_block = &decode_block_scalar_body;
  t.encode_block = &encode_block_scalar_body;
  t.decode_dequantize = &decode_dequantize_scalar_body;
  t.decode_fold = &decode_fold_scalar_body;
  t.decode_combine = &decode_combine_scalar_body;
  return true;
}

}  // namespace hzccl::kernels::detail
