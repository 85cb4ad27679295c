// Shared configuration and ring arithmetic for the collective stacks.
//
// All three stacks (raw "original MPI", C-Coll-style DOC, hZCCL) implement
// the same ring algorithms over the same simmpi primitives, so measured
// differences come only from what the paper varies: whether data moves
// compressed, and how the reduce step handles compressed operands.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/integrity/digest.hpp"
#include "hzccl/simmpi/costmodel.hpp"
#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl::coll {

/// Element-wise reduction operator.  The homomorphic stack supports kSum
/// natively (residual streams add linearly); kMin/kMax are order statistics
/// with no linear structure in the residual domain, so they run through the
/// raw and DOC stacks only — matching the paper, which develops 'sum' and
/// notes the co-design principles for other operations as future work.
enum class ReduceOp { kSum, kMin, kMax };

/// Element-wise `acc[i] = op(acc[i], incoming[i])` — the steady-state reduce
/// loop of every ring step across the raw, DOC and recursive-doubling
/// stacks.  One shared HZCCL_HOT body so tools/analyze proves the loop
/// allocation- and throw-free once for all of them.
HZCCL_HOT inline void reduce_combine_span(ReduceOp op, float* acc, const float* incoming,
                                          size_t n) {
  switch (op) {
    case ReduceOp::kSum:
      for (size_t i = 0; i < n; ++i) acc[i] += incoming[i];
      break;
    case ReduceOp::kMin:
      for (size_t i = 0; i < n; ++i) acc[i] = incoming[i] < acc[i] ? incoming[i] : acc[i];
      break;
    case ReduceOp::kMax:
      for (size_t i = 0; i < n; ++i) acc[i] = incoming[i] > acc[i] ? incoming[i] : acc[i];
      break;
  }
}

/// When a collective checks the ABFT digests riding its streams.  The
/// transport CRC catches wire damage; digests catch what the CRC cannot —
/// corruption that happened *before* framing (a flipped payload bit, a
/// poisoned combine) and therefore arrives CRC-valid.
enum class VerifyPolicy : int {
  kOff = 0,       ///< no digest emission or checking (the pre-integrity wire)
  kFinal = 1,     ///< detection only: recheck at the final decode, throw
                  ///< IntegrityError on mismatch
  kPerRound = 2,  ///< verify-and-recover: every received stream and every
                  ///< combine output is checked; mismatches heal via
                  ///< NACK/retransmit, recompute, or the raw fallback
};
inline constexpr int kNumVerifyPolicies = 3;

/// Short stable name ("off", "final", "round").
const char* verify_policy_name(VerifyPolicy policy);

/// Parse a CLI spelling (name above or long aliases); throws hzccl::Error
/// on an unknown policy.
VerifyPolicy parse_verify_policy(const std::string& text);

struct CollectiveConfig {
  double abs_error_bound = 1e-4;
  uint32_t block_len = 32;
  ReduceOp reduce_op = ReduceOp::kSum;
  simmpi::Mode mode = simmpi::Mode::kMultiThread;
  simmpi::CostModel cost = simmpi::CostModel::paper_broadwell();
  /// OpenMP threads the kernels *actually* use on this host.  Functional
  /// only — the virtual clock charges by `mode` + `cost`, never wall time.
  /// 1 keeps many-rank jobs from oversubscribing small hosts.
  int host_threads = 1;
  /// Digest verification policy.  Any policy other than kOff makes the
  /// compressors emit per-chunk digest tables (and the raw stack ship
  /// content-digest trailers), so verification cost is paid only when asked.
  VerifyPolicy verify = VerifyPolicy::kOff;

  FzParams fz_params(size_t /*block_elems*/) const {
    FzParams p;
    p.abs_error_bound = abs_error_bound;
    p.block_len = block_len;
    p.num_chunks = 0;  // deterministic auto layout: equal across ranks
    p.num_threads = host_threads;
    p.emit_digests = verify != VerifyPolicy::kOff;
    return p;
  }
};

/// Element range of ring block `index` when `total` elements are scattered
/// over `nranks` blocks (same remainder rule as the compressor chunks).
inline Range ring_block_range(size_t total, int nranks, int index) {
  return chunk_range(total, nranks, index);
}

/// Ring reduce-scatter schedule: at step s (0-based, N-1 steps), rank r
/// sends block (r - s) mod N to rank r+1 and receives block (r - s - 1)
/// mod N from rank r-1, which it accumulates.  After the last step rank r
/// owns the fully reduced block (r + 1) mod N.
inline int rs_send_block(int rank, int step, int nranks) {
  return ((rank - step) % nranks + nranks) % nranks;
}
inline int rs_recv_block(int rank, int step, int nranks) {
  return ((rank - step - 1) % nranks + nranks) % nranks;
}
inline int rs_owned_block(int rank, int nranks) { return (rank + 1) % nranks; }

/// Ring allgather schedule (ownership o(r) = (r+1) mod N, matching the
/// reduce-scatter output): at step s rank r sends block (r - s + 1) mod N
/// and receives block (r - s) mod N.
inline int ag_send_block(int rank, int step, int nranks) {
  return ((rank - step + 1) % nranks + nranks) % nranks;
}
inline int ag_recv_block(int rank, int step, int nranks) {
  return ((rank - step) % nranks + nranks) % nranks;
}

inline int ring_next(int rank, int nranks) { return (rank + 1) % nranks; }
inline int ring_prev(int rank, int nranks) { return (rank - 1 + nranks) % nranks; }

/// Tags: phase base + step keeps reduce-scatter and allgather traffic of one
/// allreduce from aliasing.
inline constexpr int kTagReduceScatter = 0;
inline constexpr int kTagAllgather = 1 << 20;
inline constexpr int kTagSize = 1 << 21;
/// Two-level (hierarchical) allreduce: intra-node raw gather to the node
/// leader, and the leader's raw result broadcast.  Offset by the member's
/// virtual rank so a leader's flows to its members never alias.
inline constexpr int kTagIntraReduce = 1 << 23;
inline constexpr int kTagIntraBcast = (1 << 23) + (1 << 20);
/// Raw recursive-doubling / Rabenseifner exchanges: the fold onto active
/// ranks, the per-step exchanges (offset by step) and the unfold.
inline constexpr int kTagFold = 1 << 22;
inline constexpr int kTagStep = (1 << 22) + 1;
inline constexpr int kTagUnfold = (1 << 22) + 4096;
/// Compressed recursive-doubling / Rabenseifner exchanges (offset by step,
/// and for Rabenseifner also by block index: step * nranks + block).
inline constexpr int kTagDoubling = 1 << 24;
inline constexpr int kTagHalving = (1 << 24) + (1 << 20);
/// Binomial-tree broadcast and gather (movement.hpp); the gather offsets by
/// the tree level's mask.  They share the two-level range: no collective
/// runs both.
inline constexpr int kTagBcast = 1 << 23;
inline constexpr int kTagGather = (1 << 23) + 1;
/// Offset added to a payload's tag for its 16-byte content-digest trailer
/// (raw-float exchanges under a verify policy).  Above every payload tag
/// space, so a message and its trailer never alias.
inline constexpr int kTagDigest = 1 << 26;

/// Allreduce algorithm.  All algorithms move the *same* fZ-light streams —
/// the wire format never changes, only the exchange schedule (FORMAT.md).
/// kAuto resolves once per job via the closed-form round model
/// (cluster::model_allreduce_algo) from (message size, nodes, ranks/node).
enum class AllreduceAlgo : int {
  kAuto = 0,
  kRing = 1,               ///< flat bandwidth-optimal ring (RS + allgather)
  kRecursiveDoubling = 2,  ///< log2(P) whole-vector exchanges (small messages)
  kRabenseifner = 3,       ///< halving RS + doubling allgather (medium sizes)
  kTwoLevel = 4,           ///< node leaders: raw intra combine + leader ring
};
inline constexpr int kNumAllreduceAlgos = 5;

/// Short stable name ("auto", "ring", "rd", "rab", "2level").
const char* allreduce_algo_name(AllreduceAlgo algo);

/// Parse a CLI spelling (name above or long aliases); throws hzccl::Error
/// on an unknown algorithm.
AllreduceAlgo parse_allreduce_algo(const std::string& text);

/// Homomorphic collectives reduce in the residual domain and support kSum
/// only; throws hzccl::Error for any other operator.
void require_sum(const CollectiveConfig& config);

/// {0, 1, ..., size - 1}: the member list of the flat ring.
std::vector<int> identity_members(int size);

/// Recursive-doubling rank layout (MPICH): with p2 the largest power of two
/// <= size and rem = size - p2, the first 2*rem ranks pair up and the even
/// rank of each pair folds its data onto the odd one, so p2 ranks stay
/// active for the log2(p2) exchanges; the unfold hands the result back.
struct DoublingLayout {
  int p2 = 1;
  int rem = 0;
  bool folded_pair = false;  ///< rank < 2*rem: one half of a fold pair
  int active = -1;           ///< index among the active ranks; -1 once folded away
  /// Real rank of active index `a`.
  int real_rank(int a) const { return a < rem ? 2 * a + 1 : a + rem; }
};
DoublingLayout doubling_layout(int rank, int size);

/// Node grouping of the two-level schedules.  Membership comes from
/// *physical* ranks, so remainder nodes and shrunk (post-failure) groups fall
/// out naturally: whatever survivors a node still has elect its lowest
/// virtual rank as leader.  The group is sorted by physical rank, so
/// co-located members are contiguous.
struct NodeGroups {
  std::vector<int> leaders;       ///< virtual rank of every node's leader
  std::vector<int> node_members;  ///< my node's virtual ranks, leader first
  int my_leader_idx = -1;         ///< my node's index in `leaders`
};
NodeGroups node_groups(const simmpi::Topology& topo, const std::vector<int>& group, int rank);

// ---------------------------------------------------------------------------
// Receive-side helpers of the collective bodies (schedules.hpp).
// ---------------------------------------------------------------------------

/// True when `bytes` parse as an fZ-light stream carrying `expect_elements`
/// elements (0 accepts any element count) and, with `walk_blocks`, every
/// chunk's block chain holds together: known code lengths, every block
/// inside its chunk, no bytes after the last one.  Never throws.
bool fz_stream_decodes(std::span<const uint8_t> bytes, size_t expect_elements,
                       bool walk_blocks);

/// A compressed block received through the fault-hardened transport.  When
/// receive-side healing had to fall back to the raw block, the block arrives
/// `degraded`: `raw` holds the sender's data as floats and `compressed` is
/// empty.  Callers decide how to reintegrate it (reduce over floats, or
/// re-encode before forwarding).
struct CheckedBlock {
  CompressedBuffer compressed;
  std::vector<float> raw;
  bool degraded = false;
};

/// Wire form of a content-digest trailer: two little-endian u64 words
/// (sum, wsum), shipped on `tag + kTagDigest` after a raw-float payload
/// under a verify policy.
std::array<uint8_t, 16> digest_trailer_bytes(const integrity::Digest& digest);
integrity::Digest parse_digest_trailer(std::span<const uint8_t> wire);

}  // namespace hzccl::coll
