#include "hzccl/collectives/movement.hpp"

#include <cstring>

#include "hzccl/collectives/schedules.hpp"
#include "hzccl/util/bytes.hpp"

namespace hzccl::coll {

using simmpi::Comm;
using simmpi::CostBucket;

namespace {

constexpr int kTagBcast = 1 << 23;
constexpr int kTagGather = (1 << 23) + 1;

int relative_rank(int rank, int root, int size) { return ((rank - root) % size + size) % size; }
int absolute_rank(int relative, int root, int size) { return (relative + root) % size; }

/// Binomial-tree receive step: returns the relative parent, or -1 for the
/// root, and leaves `mask` at the level below this rank (its send levels).
int binomial_parent(int relative, int size, int& mask) {
  mask = 1;
  while (mask < size) {
    if (relative & mask) return relative - mask;
    mask <<= 1;
  }
  return -1;
}

/// The raw stack's single-threaded digest check of a received payload.
void verify_raw(CommTransport& t, int src, int tag, std::span<float> data,
                const CollectiveConfig& config) {
  if (config.verify == VerifyPolicy::kOff) return;
  run_to_completion(body::verify_floats(t, src, tag, data, config, simmpi::Mode::kSingleThread));
}

}  // namespace

void raw_bcast(Comm& comm, std::vector<float>& data, int root, const CollectiveConfig& config) {
  const int size = comm.size();
  const int relative = relative_rank(comm.rank(), root, size);
  CommTransport t(comm);

  int mask = 0;
  const int parent = binomial_parent(relative, size, mask);
  if (parent >= 0) {
    const int parent_rank = absolute_rank(parent, root, size);
    data = floats_from_bytes(comm.recv(parent_rank, kTagBcast), "raw_bcast payload");
    // Recheck before forwarding, so a corrupt payload never propagates down
    // the broadcast tree.
    verify_raw(t, parent_rank, kTagBcast, data, config);
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    const int child = relative + mask;
    if (child < size) {
      body::send_floats_checked(t, absolute_rank(child, root, size), kTagBcast, data, config,
                                simmpi::Mode::kSingleThread);
    }
  }
}

void ccoll_bcast(Comm& comm, std::vector<float>& data, int root,
                 const CollectiveConfig& config) {
  const int size = comm.size();
  const int relative = relative_rank(comm.rank(), root, size);

  BufferPool& pool = BufferPool::local();
  CompressedBuffer compressed;
  if (relative == 0) {
    compressed = fz_compress(data, config.fz_params(data.size()), &pool);
    comm.charge(CostBucket::kCpr,
                config.cost.seconds_fz_compress(data.size() * sizeof(float), config.mode),
                trace::EventKind::kCompress, data.size() * sizeof(float),
                compressed.bytes.size());
  }

  int mask = 0;
  const int parent = binomial_parent(relative, size, mask);
  if (parent >= 0) {
    const int parent_rank = absolute_rank(parent, root, size);
    compressed.bytes = comm.recv(parent_rank, kTagBcast);
    // Heal before forwarding, so a corrupt stream never propagates down
    // the broadcast tree.
    compressed = heal_stream(comm, parent_rank, kTagBcast, std::move(compressed), config);
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    const int child = relative + mask;
    if (child < size) {
      comm.send(absolute_rank(child, root, size), kTagBcast, compressed.span());
    }
  }

  // Everyone (root included) materializes the decompressed field, so all
  // ranks end bit-identical — the property applications actually rely on.
  // Per-round verification already rechecked the stream in heal_stream.
  if (config.verify == VerifyPolicy::kFinal) {
    CommTransport t(comm);
    body::final_verify_stream(t, compressed, config);
  }
  {
    const FzView view = parse_fz(compressed.bytes);
    data.resize(view.num_elements());
    fz_decompress(view, data, config.host_threads);
  }
  const uint64_t compressed_bytes = compressed.bytes.size();
  pool.release(std::move(compressed.bytes));
  comm.charge(CostBucket::kDpr,
              config.cost.seconds_fz_decompress(data.size() * sizeof(float), config.mode),
              trace::EventKind::kDecompress, data.size() * sizeof(float), compressed_bytes);
}

void raw_gather(Comm& comm, std::span<const float> mine, int root, std::vector<float>& out,
                const CollectiveConfig& config) {
  const int size = comm.size();
  const int relative = relative_rank(comm.rank(), root, size);
  const size_t chunk = mine.size();
  CommTransport t(comm);

  // Subtree buffer in relative-rank order, starting with this rank's data.
  std::vector<float> buffer(mine.begin(), mine.end());
  int mask = 1;
  while (mask < size) {
    if (relative & mask) {
      body::send_floats_checked(t, absolute_rank(relative - mask, root, size), kTagGather + mask,
                                buffer, config, simmpi::Mode::kSingleThread);
      break;
    }
    const int child = relative + mask;
    if (child < size) {
      const int child_rank = absolute_rank(child, root, size);
      const auto payload = comm.recv(child_rank, kTagGather + mask);
      const size_t stride = chunk * sizeof(float);
      // Guard the stride before the modulo: with empty contributions any
      // nonempty payload is malformed, and chunk == 0 must not divide by 0.
      if (stride == 0 ? !payload.empty() : payload.size() % stride != 0) {
        throw Error("raw_gather: ranks contributed unequal chunk sizes");
      }
      std::vector<float> received = floats_from_bytes(payload, "raw_gather payload");
      verify_raw(t, child_rank, kTagGather + mask, received, config);
      buffer.insert(buffer.end(), received.begin(), received.end());
    }
    mask <<= 1;
  }

  out.clear();
  if (relative == 0) {
    // buffer holds contributions of relative ranks 0..size-1 in order;
    // rotate into absolute rank order.
    out.resize(chunk * static_cast<size_t>(size));
    for (int v = 0; v < size; ++v) {
      const int rank = absolute_rank(v, root, size);
      std::memcpy(out.data() + static_cast<size_t>(rank) * chunk,
                  buffer.data() + static_cast<size_t>(v) * chunk, chunk * sizeof(float));
    }
  }
}

}  // namespace hzccl::coll
