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
  t.decompress_chunk = &decompress_chunk_scalar_body;
  t.fold_chunk = &fold_chunk_scalar_body;
  t.combine_chunk = &combine_chunk_scalar_body;
  return true;
}

}  // namespace hzccl::kernels::detail
