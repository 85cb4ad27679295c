// Collective data-movement operations beyond Allgather: binomial-tree
// Broadcast and Gather for the baseline stack, plus the compression-
// accelerated Broadcast (C-Coll's framework covers *all* collectives —
// paper §I: "realizes high performance ... for all collective operations";
// data movement ops compress once at the root and decompress once at each
// destination, with compressed bytes on every hop).  Each entry point runs
// its one coroutine body in schedules.hpp, like every other collective.
#pragma once

#include <span>
#include <vector>

#include "hzccl/collectives/common.hpp"

namespace hzccl::coll {

/// Binomial-tree broadcast of `data` from `root` (any rank count).  On
/// non-root ranks, `data` is resized and overwritten.  Under a verify policy
/// every hop ships the raw stack's content-digest trailer and the receiver
/// rechecks it before forwarding: verify=final throws IntegrityError on a
/// mismatch, verify=round heals it (as does raw_gather).
void raw_bcast(simmpi::Comm& comm, std::vector<float>& data, int root,
               const CollectiveConfig& config);

/// Compression-accelerated broadcast: the root compresses once, the tree
/// forwards compressed bytes, every non-root decompresses once.  Values are
/// eb-accurate; all ranks (including the root) end with the *decompressed*
/// field so every rank holds bit-identical data.
void ccoll_bcast(simmpi::Comm& comm, std::vector<float>& data, int root,
                 const CollectiveConfig& config);

/// Binomial-tree gather: rank `root` receives every rank's equal-sized
/// contribution, concatenated in rank order; other ranks get an empty out.
void raw_gather(simmpi::Comm& comm, std::span<const float> mine, int root,
                std::vector<float>& out, const CollectiveConfig& config);

}  // namespace hzccl::coll
