#include "hzccl/collectives/common.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <span>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/util/bytes.hpp"
#include "hzccl/util/threading.hpp"

namespace hzccl::coll {

const char* allreduce_algo_name(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kAuto: return "auto";
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kRecursiveDoubling: return "rd";
    case AllreduceAlgo::kRabenseifner: return "rab";
    case AllreduceAlgo::kTwoLevel: return "2level";
  }
  return "?";
}

AllreduceAlgo parse_allreduce_algo(const std::string& text) {
  if (text == "auto") return AllreduceAlgo::kAuto;
  if (text == "ring") return AllreduceAlgo::kRing;
  if (text == "rd" || text == "recursive-doubling" || text == "recursive_doubling") {
    return AllreduceAlgo::kRecursiveDoubling;
  }
  if (text == "rab" || text == "rabenseifner") return AllreduceAlgo::kRabenseifner;
  if (text == "2level" || text == "two-level" || text == "two_level" || text == "hier") {
    return AllreduceAlgo::kTwoLevel;
  }
  throw Error("unknown allreduce algorithm '" + text +
              "' (expected auto|ring|rd|rab|2level)");
}

const char* verify_policy_name(VerifyPolicy policy) {
  switch (policy) {
    case VerifyPolicy::kOff: return "off";
    case VerifyPolicy::kFinal: return "final";
    case VerifyPolicy::kPerRound: return "round";
  }
  return "?";
}

VerifyPolicy parse_verify_policy(const std::string& text) {
  if (text == "off" || text == "none") return VerifyPolicy::kOff;
  if (text == "final") return VerifyPolicy::kFinal;
  if (text == "round" || text == "per-round" || text == "per_round") {
    return VerifyPolicy::kPerRound;
  }
  throw Error("unknown verify policy '" + text + "' (expected off|final|round)");
}

bool fz_stream_decodes(std::span<const uint8_t> bytes, size_t expect_elements,
                       bool walk_blocks) {
  try {
    const FzView view = parse_fz(bytes);
    if (expect_elements != 0 && view.num_elements() != expect_elements) return false;
    if (!walk_blocks) return true;
    const uint32_t nchunks = view.num_chunks();
    const size_t block_len = view.block_len();
    for (uint32_t c = 0; c < nchunks; ++c) {
      const Range r =
          chunk_range(view.num_elements(), static_cast<int>(nchunks), static_cast<int>(c));
      const std::span<const uint8_t> chunk = view.chunk_payload(c);
      const uint8_t* p = chunk.data();
      const uint8_t* const end = p + chunk.size();
      for (size_t pos = 0; pos < r.size(); pos += block_len) {
        p += peek_block_size(p, end, std::min(block_len, r.size() - pos));
      }
      if (p != end) return false;
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

void require_sum(const CollectiveConfig& config) {
  if (config.reduce_op != ReduceOp::kSum) {
    throw Error(
        "hZCCL collectives reduce homomorphically and support kSum only; "
        "use the C-Coll (DOC) stack for min/max");
  }
}

std::vector<int> identity_members(int size) {
  std::vector<int> members(static_cast<size_t>(size));
  std::iota(members.begin(), members.end(), 0);
  return members;
}

DoublingLayout doubling_layout(int rank, int size) {
  DoublingLayout d;
  while (d.p2 * 2 <= size) d.p2 *= 2;
  d.rem = size - d.p2;
  d.folded_pair = rank < 2 * d.rem;
  if (!d.folded_pair) {
    d.active = rank - d.rem;
  } else if (rank % 2 == 1) {
    d.active = rank / 2;
  }
  return d;
}

NodeGroups node_groups(const simmpi::Topology& topo, const std::vector<int>& group, int rank) {
  NodeGroups g;
  const int my_node = topo.node_of(group[static_cast<size_t>(rank)]);
  int prev_node = -1;
  for (size_t v = 0; v < group.size(); ++v) {
    const int node = topo.node_of(group[v]);
    if (node != prev_node) {
      if (node == my_node) g.my_leader_idx = static_cast<int>(g.leaders.size());
      g.leaders.push_back(static_cast<int>(v));
      prev_node = node;
    }
    if (node == my_node) g.node_members.push_back(static_cast<int>(v));
  }
  return g;
}

std::array<uint8_t, 16> digest_trailer_bytes(const integrity::Digest& d) {
  std::array<uint8_t, 16> wire;
  std::memcpy(wire.data(), &d.sum, 8);
  std::memcpy(wire.data() + 8, &d.wsum, 8);
  return wire;
}

integrity::Digest parse_digest_trailer(std::span<const uint8_t> wire) {
  if (wire.size() != 16) {
    throw FormatError("digest trailer must be exactly 16 bytes");
  }
  ByteReader reader(wire, "digest trailer");
  integrity::Digest d;
  d.sum = reader.read<uint64_t>("sum");
  d.wsum = reader.read<uint64_t>("wsum");
  return d;
}

}  // namespace hzccl::coll
