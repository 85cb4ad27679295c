// Host CPU feature probes backing the runtime kernel dispatch
// (hzccl/kernels/dispatch.hpp).  Each probe answers "can this process
// execute the corresponding hand-vectorized kernel family?", i.e. it checks
// every ISA extension that family uses, not just the headline one.
//
// On non-x86 builds both probes return false and the dispatcher pins the
// scalar reference table.
#pragma once

namespace hzccl {

/// AVX2 kernel family: AVX2 + BMI2 (PDEP/PEXT drive the bit-plane codecs)
/// + SSE4.2 (the crc32 instruction drives the CRC-32C).
bool cpu_supports_avx2();

/// AVX-512 kernel family: F + BW + DQ + VL + VBMI (VPERMB/VPMULTISHIFTQB
/// drive the wide unpack; VCVTPD2QQ drives the exact-llrint quantizer) +
/// PCLMUL + VPCLMULQDQ (the carry-less CRC-32C fold).  Of the CPUs with
/// VBMI, only Cannon Lake lacks VPCLMULQDQ.
bool cpu_supports_avx512();

}  // namespace hzccl
