// STREAM memory-bandwidth benchmark (McCalpin), reimplemented so Table IV's
// memory-bandwidth-efficiency numbers are normalized against the *host's*
// measured peak exactly as the paper normalizes against its Broadwell socket.
#pragma once

#include <cstddef>

namespace hzccl {

/// Best-of-trials bandwidth of the four STREAM kernels, in GB/s.
/// STREAM convention: Copy/Scale move 2 arrays per element, Add/Triad move 3.
struct StreamResult {
  double copy_gbps = 0.0;
  double scale_gbps = 0.0;
  double add_gbps = 0.0;
  double triad_gbps = 0.0;
  /// The paper selects "the highest throughput among the four provided by
  /// STREAM" as the peak used for efficiency percentages.
  double peak() const;
};

/// Run STREAM with `elements` doubles per array and `trials` repetitions.
StreamResult run_stream(size_t elements = size_t{1} << 23, int trials = 5);

}  // namespace hzccl
