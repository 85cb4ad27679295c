// Error and data-quality metrics used across the evaluation: the quantities
// reported in the paper's Tables III, VI and VII (compression ratio, NRMSE,
// PSNR, max abs/rel/pointwise-relative error) plus summary statistics, and
// the per-rank transport health counters of the fault-injected simmpi runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hzccl {

/// Data-quality comparison between an original and a reconstructed field.
struct ErrorStats {
  double min = 0.0;        ///< minimum of the original data
  double max = 0.0;        ///< maximum of the original data
  double range = 0.0;      ///< max - min
  double max_abs_err = 0.0;
  double max_rel_err = 0.0;     ///< max |err| / range
  double max_pw_rel_err = 0.0;  ///< max |err| / |orig| over nonzero originals
  double rmse = 0.0;
  double nrmse = 0.0;  ///< rmse / range
  double psnr = 0.0;   ///< 20*log10(range / rmse)
};

/// Compare reconstruction against original element-wise; spans must match.
ErrorStats compare(std::span<const float> original, std::span<const float> reconstructed);

/// Value range [min, max] of a field.
struct ValueRange {
  double min = 0.0;
  double max = 0.0;
  double span() const { return max - min; }
};
ValueRange value_range(std::span<const float> data);

/// Convert a relative error bound (fraction of the value range, the paper's
/// "REL") into the absolute bound the compressor consumes.
double abs_bound_from_rel(std::span<const float> data, double rel_bound);

/// original bytes / compressed bytes.
double compression_ratio(size_t original_bytes, size_t compressed_bytes);

/// Why a block encoder routed a block to the raw (verbatim float) fallback
/// instead of the quantized residual domain.
enum class RawBlockReason {
  kNonFinite,      ///< the block contains a NaN or an infinity
  kDenormalHeavy,  ///< more than half of the block's values are subnormal
};

/// Cheap bit-level scan deciding whether a block must take the raw fallback:
/// one pass over the exponent fields, no floating-point comparisons (so NaNs
/// cannot poison the decision the way they poison min/max scans).
std::optional<RawBlockReason> classify_raw_block(const float* values, size_t n);

/// Process-wide raw-fallback counters, one per reason — the
/// pool_heap_allocations() idiom: encoders bump them from any thread; tests
/// and tools read deltas around the region of interest.
void count_raw_block(RawBlockReason reason);
uint64_t raw_block_encodes(RawBlockReason reason);
uint64_t raw_block_encodes();  ///< total across all reasons

/// Per-rank health counters of the framed simmpi transport, reported
/// alongside the ClockReport.  Sender-side events (frames sent, injected
/// wire faults, send stalls) accumulate on the sending rank; recovery events
/// (retransmits, corrupt frames caught, duplicate discards, timeouts, raw
/// fallbacks) accumulate on the receiving rank that performed the recovery.
struct TransportStats {
  uint64_t frames_sent = 0;        ///< framed messages injected into the wire
  uint64_t frames_accepted = 0;    ///< frames that passed validation and were consumed
  uint64_t faults_injected = 0;    ///< wire faults the plan fired on this rank's sends
  uint64_t retransmits = 0;        ///< NACK-driven refetches from the in-flight window
  uint64_t corrupt_frames = 0;     ///< frames the CRC/length validation rejected
  uint64_t duplicate_discards = 0; ///< frames dropped because their seq was already accepted
  uint64_t timeout_waits = 0;      ///< receives that timed out on a dropped/held frame
  uint64_t raw_fallbacks = 0;      ///< persistent decode failures healed with a raw block
  uint64_t stalls = 0;             ///< injected per-rank stalls

  /// True when no fault fired and no recovery was needed.
  bool clean() const;
  TransportStats& operator+=(const TransportStats& other);
  /// What these counters added since the `earlier` snapshot of them.
  TransportStats operator-(const TransportStats& earlier) const;
};

/// Element-wise sum over all ranks of a job.
TransportStats total_transport(std::span<const TransportStats> per_rank);

/// One-line summary ("sent=96 retx=7 corrupt=2 dup=1 timeout=4 raw=0 ...").
std::string describe(const TransportStats& s);

/// Per-rank endpoint-health counters of the rank-failure subsystem.
/// Injection events (crashes, hangs, straggles) accumulate on the faulted
/// rank itself; detection/agreement/recovery events accumulate on each
/// survivor that performed them.
struct HealthStats {
  uint64_t crashes = 0;            ///< injected crash faults fired on this rank
  uint64_t hangs = 0;              ///< injected hang faults fired on this rank
  uint64_t straggles = 0;          ///< 1 when this rank ran with a straggler factor
  uint64_t suspects = 0;           ///< Alive → Suspect transitions this rank observed
  uint64_t dead_declared = 0;      ///< Suspect → Dead declarations this rank made
  uint64_t agreements = 0;         ///< agreement rounds this rank completed
  uint64_t failed_agreements = 0;  ///< agreement rounds that reported failed ranks
  uint64_t stale_discards = 0;     ///< frames discarded for carrying an old epoch
  uint64_t shrinks = 0;            ///< group shrinks this rank participated in
  uint64_t retries = 0;            ///< collective attempts re-run after a shrink

  /// True when no rank failure fired and no recovery happened.
  bool clean() const;
  HealthStats& operator+=(const HealthStats& other);
};

/// Element-wise sum over all ranks of a job.
HealthStats total_health(std::span<const HealthStats> per_rank);

/// One-line summary ("crashes=1 suspects=7 dead=7 agree=14 shrink=7 ...").
std::string describe(const HealthStats& s);

/// Per-rank counters of the ABFT digest verify-and-recover machinery.
/// Verification events accumulate on the rank that ran the check; injection
/// events (poisoned combines) accumulate on the rank whose combine was
/// poisoned.
struct IntegrityStats {
  uint64_t digests_checked = 0;       ///< digest verifications performed
  uint64_t mismatches = 0;            ///< verifications that caught corruption
  uint64_t retransmit_recoveries = 0; ///< mismatches healed from the in-flight window
  uint64_t recomputes = 0;            ///< mismatches healed by recomputing from inputs
  uint64_t raw_fallbacks = 0;         ///< mismatches healed by the raw-block degrade path
  uint64_t poisoned_combines = 0;     ///< injected compute-side combine corruptions

  /// True when nothing was checked or every check passed with no injection.
  bool clean() const;
  IntegrityStats& operator+=(const IntegrityStats& other);
};

/// Element-wise sum over all ranks of a job.
IntegrityStats total_integrity(std::span<const IntegrityStats> per_rank);

/// One-line summary ("checked=96 mismatch=2 retx=2 recompute=0 ...").
std::string describe(const IntegrityStats& s);

/// Sample mean and (population) standard deviation of a series; used for the
/// per-field NRMSE STD columns of Tables III and VI.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Summary summarize(std::span<const double> values);

}  // namespace hzccl
