#include "hzccl/cluster/roundsim.hpp"

#include <algorithm>

#include "hzccl/stats/metrics.hpp"

namespace hzccl::cluster {

using simmpi::CostModel;
using simmpi::Mode;
using simmpi::NetModel;

double CompressionProfile::ratio_at_depth(int depth) const {
  if (ratio.empty()) throw Error("CompressionProfile: empty profile");
  const size_t idx = static_cast<size_t>(std::clamp<int>(depth - 1, 0,
                                                         static_cast<int>(ratio.size()) - 1));
  return ratio[idx];
}

HzPipelineStats CompressionProfile::stats_at_depth(int depth, size_t elements) const {
  if (hz_stats.empty()) throw Error("CompressionProfile: no hz statistics");
  const size_t idx = static_cast<size_t>(std::clamp<int>(depth - 1, 0,
                                                         static_cast<int>(hz_stats.size()) - 1));
  const HzPipelineStats& s = hz_stats[idx];
  const double scale =
      static_cast<double>(elements) / static_cast<double>(sample_elements);
  HzPipelineStats scaled;
  scaled.p1 = static_cast<uint64_t>(static_cast<double>(s.p1) * scale);
  scaled.p2 = static_cast<uint64_t>(static_cast<double>(s.p2) * scale);
  scaled.p3 = static_cast<uint64_t>(static_cast<double>(s.p3) * scale);
  scaled.p4 = static_cast<uint64_t>(static_cast<double>(s.p4) * scale);
  scaled.copied_bytes = static_cast<uint64_t>(static_cast<double>(s.copied_bytes) * scale);
  scaled.p4_elements = static_cast<uint64_t>(static_cast<double>(s.p4_elements) * scale);
  return scaled;
}

CompressionProfile CompressionProfile::measure(const std::vector<std::vector<float>>& fields,
                                               const FzParams& params, int max_depth) {
  if (fields.empty()) throw Error("CompressionProfile::measure: need at least one field");
  CompressionProfile profile;
  profile.sample_elements = fields[0].size();
  profile.block_len = params.block_len;

  const size_t raw_bytes = fields[0].size() * sizeof(float);
  CompressedBuffer acc = fz_compress(fields[0], params);
  profile.ratio.push_back(compression_ratio(raw_bytes, acc.size_bytes()));

  for (int depth = 2; depth <= max_depth; ++depth) {
    const auto& next = fields[static_cast<size_t>(depth - 1) % fields.size()];
    if (next.size() != profile.sample_elements) {
      throw Error("CompressionProfile::measure: fields differ in size");
    }
    const CompressedBuffer operand = fz_compress(next, params);
    HzPipelineStats stats;
    acc = hz_add(acc, operand, &stats);
    profile.hz_stats.push_back(stats);
    profile.ratio.push_back(compression_ratio(raw_bytes, acc.size_bytes()));
  }
  return profile;
}

namespace {

/// Inter-node transfer cost for one block of `bytes` at `flows` concurrent
/// inter-node flows (the congestion argument; == ranks on a flat topology).
double transfer_at(const NetModel& net, double bytes, int flows) {
  return net.transfer_seconds(static_cast<size_t>(bytes), flows);
}

/// Intra-node (shared-memory-class) transfer cost.
double intra_transfer(const NetModel& net, double bytes) {
  return net.intra_latency_s + bytes / net.intra_bytes_per_s();
}

using coll::VerifyPolicy;

/// One digest walk over `bytes` compressed (or, on the raw stack, payload)
/// bytes under either verify policy — the charge of the functional verify_stream_digests and
/// charged_content_digest.  Which walks a schedule makes, from
/// collectives/schedules.hpp:
///   * raw: two per exchange, the sender's trailer and the receiver's
///     recheck, under either policy, single-threaded; no end-of-collective
///     walk;
///   * C-Coll: one per received stream under either policy (on receive
///     under round, at doc_decompress under final);
///   * hZ: per round, the received stream and the combine output; under
///     either policy, every block at its final decode (decode_all_blocks),
///     which for reduce-scatter is the owned block only.
double walk(const CostModel& cost, Mode mode, VerifyPolicy verify, double bytes) {
  if (verify == VerifyPolicy::kOff) return 0.0;
  return cost.seconds_digest_verify(static_cast<size_t>(bytes), mode);
}

/// A walk only per-round verification makes.
double round_walk(const CostModel& cost, Mode mode, VerifyPolicy verify, double bytes) {
  return verify == VerifyPolicy::kPerRound ? walk(cost, mode, verify, bytes) : 0.0;
}

ModelResult model_reduce_scatter_flows(Kernel kernel, int nranks, int flows, size_t total_bytes,
                                       const CompressionProfile& profile, const NetModel& net,
                                       const CostModel& cost, VerifyPolicy verify,
                                       bool fused_tail) {
  const Mode mode = kernel_mode(kernel);
  const double block_bytes = static_cast<double>(total_bytes) / nranks;
  const size_t block_elems = static_cast<size_t>(block_bytes) / sizeof(float);
  ModelResult r;

  switch (kernel) {
    case Kernel::kMpi:
      for (int s = 0; s < nranks - 1; ++s) {
        r.mpi_seconds += transfer_at(net, block_bytes, flows);
        r.cpt_seconds += cost.seconds_raw_sum(static_cast<size_t>(block_bytes),
                                              Mode::kSingleThread);
        r.vrf_seconds += 2 * walk(cost, Mode::kSingleThread, verify, block_bytes);
      }
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread:
      for (int s = 0; s < nranks - 1; ++s) {
        const int depth = s + 1;  // the block sent at step s carries depth-s+1 sums
        r.cpr_seconds += cost.seconds_fz_compress(static_cast<size_t>(block_bytes), mode);
        r.mpi_seconds += transfer_at(net, block_bytes / profile.ratio_at_depth(depth), flows);
        r.dpr_seconds += cost.seconds_fz_decompress(static_cast<size_t>(block_bytes), mode);
        r.cpt_seconds += cost.seconds_raw_sum(static_cast<size_t>(block_bytes), mode);
        // The re-encode derives fresh digests: no combine-output walk.
        r.vrf_seconds += walk(cost, mode, verify, block_bytes / profile.ratio_at_depth(depth));
      }
      break;
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread:
      // Round 1: compress all N blocks once.
      r.cpr_seconds += cost.seconds_fz_compress(total_bytes, mode);
      for (int s = 0; s < nranks - 1; ++s) {
        const int depth = s + 1;
        r.mpi_seconds += transfer_at(net, block_bytes / profile.ratio_at_depth(depth), flows);
        r.hpr_seconds += cost.seconds_hz_add(profile.stats_at_depth(depth + 1, block_elems),
                                             profile.block_len, mode);
        const double received = block_bytes / profile.ratio_at_depth(depth);
        const double summed = block_bytes / profile.ratio_at_depth(std::min(depth + 1, nranks));
        r.vrf_seconds += round_walk(cost, mode, verify, received);
        r.vrf_seconds += round_walk(cost, mode, verify, summed);
      }
      if (!fused_tail) {
        r.dpr_seconds += cost.seconds_fz_decompress(static_cast<size_t>(block_bytes), mode);
        r.vrf_seconds += walk(cost, mode, verify, block_bytes / profile.ratio_at_depth(nranks));
      }
      break;
  }
  r.seconds = r.mpi_seconds + r.cpr_seconds + r.dpr_seconds + r.cpt_seconds + r.hpr_seconds +
              r.vrf_seconds;
  return r;
}

ModelResult model_allgather_flows(Kernel kernel, int nranks, int flows, size_t total_bytes,
                                  const CompressionProfile& profile, const NetModel& net,
                                  const CostModel& cost, VerifyPolicy verify) {
  const Mode mode = kernel_mode(kernel);
  const double block_bytes = static_cast<double>(total_bytes) / nranks;
  ModelResult r;

  switch (kernel) {
    case Kernel::kMpi:
      for (int s = 0; s < nranks - 1; ++s) {
        r.mpi_seconds += transfer_at(net, block_bytes, flows);
        r.vrf_seconds += 2 * walk(cost, Mode::kSingleThread, verify, block_bytes);
      }
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread: {
      // Gathered blocks are fully reduced: depth N.
      const double ratio = profile.ratio_at_depth(nranks);
      r.cpr_seconds += cost.seconds_fz_compress(static_cast<size_t>(block_bytes), mode);
      for (int s = 0; s < nranks - 1; ++s) {
        r.mpi_seconds += transfer_at(net, block_bytes / ratio, flows);
        r.vrf_seconds += walk(cost, mode, verify, block_bytes / ratio);
      }
      r.dpr_seconds +=
          cost.seconds_fz_decompress(static_cast<size_t>(block_bytes) * (nranks - 1), mode);
      break;
    }
    case Kernel::kHzcclMultiThread:
    case Kernel::kHzcclSingleThread: {
      // No leading compression: the input arrives compressed from the fused
      // reduce-scatter stage; all N blocks decompress at the end.
      const double ratio = profile.ratio_at_depth(nranks);
      for (int s = 0; s < nranks - 1; ++s) {
        r.mpi_seconds += transfer_at(net, block_bytes / ratio, flows);
        r.vrf_seconds += round_walk(cost, mode, verify, block_bytes / ratio);
      }
      r.dpr_seconds += cost.seconds_fz_decompress(total_bytes, mode);
      r.vrf_seconds += nranks * walk(cost, mode, verify, block_bytes / ratio);
      break;
    }
  }
  r.seconds = r.mpi_seconds + r.cpr_seconds + r.dpr_seconds + r.cpt_seconds + r.hpr_seconds +
              r.vrf_seconds;
  return r;
}

ModelResult combine(const ModelResult& a, const ModelResult& b) {
  ModelResult r;
  r.seconds = a.seconds + b.seconds;
  r.mpi_seconds = a.mpi_seconds + b.mpi_seconds;
  r.cpr_seconds = a.cpr_seconds + b.cpr_seconds;
  r.dpr_seconds = a.dpr_seconds + b.dpr_seconds;
  r.cpt_seconds = a.cpt_seconds + b.cpt_seconds;
  r.hpr_seconds = a.hpr_seconds + b.hpr_seconds;
  r.vrf_seconds = a.vrf_seconds + b.vrf_seconds;
  return r;
}

/// Recursive doubling for the raw and hZ stacks (C-Coll always rings):
/// ceil(log2 p2) whole-vector exchanges, plus a fold exchange and an unfold
/// when the rank count is not a power of two.  The stream sent at step s
/// carries 2^s accumulated operands.
ModelResult model_recursive_doubling(Kernel kernel, int nranks, int flows, size_t total_bytes,
                                     const CompressionProfile& profile, const NetModel& net,
                                     const CostModel& cost, VerifyPolicy verify) {
  const Mode mode = kernel_mode(kernel);
  const size_t total_elems = total_bytes / sizeof(float);
  const double total = static_cast<double>(total_bytes);
  const bool hz = kernel == Kernel::kHzcclMultiThread || kernel == Kernel::kHzcclSingleThread;
  int p2 = 1;
  while (p2 * 2 <= nranks) p2 *= 2;
  const bool fold = p2 != nranks;
  ModelResult r;

  const auto exchange = [&](int depth) {
    if (hz) {
      r.mpi_seconds += transfer_at(net, total / profile.ratio_at_depth(depth), flows);
      r.hpr_seconds += cost.seconds_hz_add(
          profile.stats_at_depth(std::min(2 * depth, nranks), total_elems),
          profile.block_len, mode);
      r.vrf_seconds += round_walk(cost, mode, verify, total / profile.ratio_at_depth(depth));
      r.vrf_seconds += round_walk(cost, mode, verify,
                                  total / profile.ratio_at_depth(std::min(2 * depth, nranks)));
    } else {
      r.mpi_seconds += transfer_at(net, total, flows);
      r.cpt_seconds += cost.seconds_raw_sum(total_bytes, Mode::kSingleThread);
      r.vrf_seconds += 2 * walk(cost, Mode::kSingleThread, verify, total);
    }
  };

  if (hz) r.cpr_seconds += cost.seconds_fz_compress(total_bytes, mode);
  if (fold) exchange(1);
  for (int mask = 1, depth = fold ? 2 : 1; mask < p2; mask <<= 1, depth *= 2) exchange(depth);
  const double reduced = total / profile.ratio_at_depth(nranks);
  if (fold) {
    // Unfold: each folded rank receives the finished vector — the reduced
    // stream on the hZ stack, raw floats on the raw one.
    r.mpi_seconds += transfer_at(net, hz ? reduced : total, flows);
    r.vrf_seconds += hz ? round_walk(cost, mode, verify, reduced)
                        : 2 * walk(cost, Mode::kSingleThread, verify, total);
  }
  if (hz) {
    r.dpr_seconds += cost.seconds_fz_decompress(total_bytes, mode);
    r.vrf_seconds += walk(cost, mode, verify, reduced);
  }

  r.seconds = r.mpi_seconds + r.cpr_seconds + r.dpr_seconds + r.cpt_seconds + r.hpr_seconds +
              r.vrf_seconds;
  return r;
}

/// Rabenseifner for the raw and hZ stacks (C-Coll always rings):
/// recursive-halving reduce-scatter (step s moves total/2^s+1 bytes)
/// followed by a recursive-doubling allgather.  Power-of-two rank counts
/// only; the functional path falls back to the ring otherwise, and so does
/// the model.
ModelResult model_rabenseifner(Kernel kernel, int nranks, int flows, size_t total_bytes,
                               const CompressionProfile& profile, const NetModel& net,
                               const CostModel& cost, VerifyPolicy verify) {
  const Mode mode = kernel_mode(kernel);
  const bool hz = kernel == Kernel::kHzcclMultiThread || kernel == Kernel::kHzcclSingleThread;
  ModelResult r;
  if (hz) r.cpr_seconds += cost.seconds_fz_compress(total_bytes, mode);

  // Halving reduce-scatter.
  double seg_bytes = static_cast<double>(total_bytes);
  int depth = 1;
  for (int mask = nranks / 2; mask >= 1; mask >>= 1) {
    seg_bytes /= 2.0;
    const size_t seg = static_cast<size_t>(seg_bytes);
    if (hz) {
      r.mpi_seconds += transfer_at(net, seg_bytes / profile.ratio_at_depth(depth), flows);
      r.hpr_seconds += cost.seconds_hz_add(
          profile.stats_at_depth(std::min(2 * depth, nranks), seg / sizeof(float)),
          profile.block_len, mode);
      r.vrf_seconds +=
          round_walk(cost, mode, verify, seg_bytes / profile.ratio_at_depth(depth));
      r.vrf_seconds += round_walk(cost, mode, verify,
                                  seg_bytes / profile.ratio_at_depth(std::min(2 * depth, nranks)));
    } else {
      r.mpi_seconds += transfer_at(net, seg_bytes, flows);
      r.cpt_seconds += cost.seconds_raw_sum(seg, Mode::kSingleThread);
      r.vrf_seconds += 2 * walk(cost, Mode::kSingleThread, verify, seg_bytes);
    }
    depth = std::min(2 * depth, nranks);
  }

  // Doubling allgather: segments are fully reduced (depth = nranks).
  const double full_ratio = profile.ratio_at_depth(nranks);
  for (int mask = 1; mask < nranks; mask <<= 1) {
    const double wire = hz ? seg_bytes / full_ratio : seg_bytes;
    r.mpi_seconds += transfer_at(net, wire, flows);
    r.vrf_seconds += hz ? round_walk(cost, mode, verify, wire)
                        : 2 * walk(cost, Mode::kSingleThread, verify, wire);
    seg_bytes *= 2.0;
  }
  if (hz) {
    // The final decode walks every ring block.
    r.dpr_seconds += cost.seconds_fz_decompress(total_bytes, mode);
    r.vrf_seconds +=
        nranks * walk(cost, mode, verify, static_cast<double>(total_bytes) / nranks / full_ratio);
  }

  r.seconds = r.mpi_seconds + r.cpr_seconds + r.dpr_seconds + r.cpt_seconds + r.hpr_seconds +
              r.vrf_seconds;
  return r;
}

ModelResult model_ring_allreduce(Kernel kernel, int nranks, int flows, size_t total_bytes,
                                 const CompressionProfile& profile, const NetModel& net,
                                 const CostModel& cost, VerifyPolicy verify) {
  const bool hz = kernel == Kernel::kHzcclMultiThread || kernel == Kernel::kHzcclSingleThread;
  const ModelResult rs = model_reduce_scatter_flows(kernel, nranks, flows, total_bytes, profile,
                                                    net, cost, verify, /*fused_tail=*/hz);
  const ModelResult ag =
      model_allgather_flows(kernel, nranks, flows, total_bytes, profile, net, cost, verify);
  return combine(rs, ag);
}

}  // namespace

ModelResult model_collective(Kernel kernel, Op op, int nranks, size_t total_bytes,
                             const CompressionProfile& profile, const NetModel& net,
                             const CostModel& cost, coll::VerifyPolicy verify) {
  if (nranks < 2) throw Error("model_collective: need at least 2 ranks");
  const int flows = net.congestion_flows(nranks);
  if (op == Op::kReduceScatter) {
    return model_reduce_scatter_flows(kernel, nranks, flows, total_bytes, profile, net, cost,
                                      verify, /*fused_tail=*/false);
  }
  return model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net, cost, verify);
}

ModelResult model_allreduce_algo(Kernel kernel, coll::AllreduceAlgo algo, int nranks,
                                 size_t total_bytes, const CompressionProfile& profile,
                                 const NetModel& net, const CostModel& cost,
                                 coll::VerifyPolicy verify) {
  if (nranks < 2) throw Error("model_allreduce_algo: need at least 2 ranks");
  const int flows = net.congestion_flows(nranks);
  // C-Coll runs every allreduce as the ring (resolve_job_algo), so that is
  // what it costs under any requested schedule.
  const bool ccoll = kernel == Kernel::kCCollMultiThread || kernel == Kernel::kCCollSingleThread;
  if (ccoll && algo != coll::AllreduceAlgo::kAuto) algo = coll::AllreduceAlgo::kRing;
  switch (algo) {
    case coll::AllreduceAlgo::kAuto:
      throw Error("model_allreduce_algo: kAuto must be resolved by the caller");
    case coll::AllreduceAlgo::kRing:
      return model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net, cost, verify);
    case coll::AllreduceAlgo::kRecursiveDoubling:
      return model_recursive_doubling(kernel, nranks, flows, total_bytes, profile, net, cost,
                                      verify);
    case coll::AllreduceAlgo::kRabenseifner:
      if ((nranks & (nranks - 1)) != 0) {
        // Functional fallback: non-power-of-two runs the ring.
        return model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net, cost,
                                    verify);
      }
      return model_rabenseifner(kernel, nranks, flows, total_bytes, profile, net, cost, verify);
    case coll::AllreduceAlgo::kTwoLevel: {
      const int nnodes = net.topo.num_nodes(nranks);
      if (nnodes >= nranks) {
        // Flat topology: every rank is its own leader — exactly the ring.
        return model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net, cost,
                                    verify);
      }
      // Intra-node phase: the leader drains ranks_per_node - 1 member
      // vectors serially over the fast channel and reduces each, then (after
      // the leader ring) re-broadcasts the finished vector.
      const int rpn = (nranks + nnodes - 1) / nnodes;
      const Mode mode = kernel_mode(kernel);
      const Mode intra_mode = kernel == Kernel::kMpi ? Mode::kSingleThread : mode;
      // Member vectors cross the intra-node channel raw: each exchange, the
      // gather and the re-broadcast alike, is a raw one of two walks.
      const double exchange_walks =
          2 * walk(cost, intra_mode, verify, static_cast<double>(total_bytes));
      ModelResult intra;
      for (int m = 1; m < rpn; ++m) {
        intra.mpi_seconds += intra_transfer(net, static_cast<double>(total_bytes));
        intra.cpt_seconds += cost.seconds_raw_sum(total_bytes, intra_mode);
        intra.vrf_seconds += exchange_walks;
      }
      intra.mpi_seconds += (rpn - 1) * net.intra_latency_s +
                           intra_transfer(net, static_cast<double>(total_bytes));
      intra.vrf_seconds += exchange_walks;
      intra.seconds = intra.mpi_seconds + intra.cpt_seconds + intra.vrf_seconds;
      if (nnodes < 2) return intra;
      // One leader per node: the inter-node ring sees nnodes flows.
      const ModelResult ring =
          model_ring_allreduce(kernel, nnodes, nnodes, total_bytes, profile, net, cost, verify);
      return combine(intra, ring);
    }
  }
  throw Error("model_allreduce_algo: unknown algorithm");
}

}  // namespace hzccl::cluster
