#include "hzccl/util/cpu.hpp"

namespace hzccl {

#if defined(__x86_64__) || defined(__i386__)

bool cpu_supports_avx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2") &&
         __builtin_cpu_supports("sse4.2");
}

bool cpu_supports_avx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("vpclmulqdq");
}

#else

bool cpu_supports_avx2() { return false; }
bool cpu_supports_avx512() { return false; }

#endif

}  // namespace hzccl
