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

/// One per-round digest walk over a stream of `bytes` compressed (or, on
/// the raw stack, payload) bytes — zero unless per-round verification is
/// on.  Mirrors the functional `verify_stream_digests` charge.
double round_verify(const CostModel& cost, Mode mode, VerifyPolicy verify, double bytes) {
  if (verify != VerifyPolicy::kPerRound) return 0.0;
  return cost.seconds_digest_verify(static_cast<size_t>(bytes), mode);
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
        // Raw stack: content-digest trailer over the received payload.
        r.vrf_seconds += round_verify(cost, Mode::kSingleThread, verify, block_bytes);
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
        // Received stream walk; the re-encode derives fresh digests, so the
        // DOC round has no combine-output check.
        r.vrf_seconds +=
            round_verify(cost, mode, verify, block_bytes / profile.ratio_at_depth(depth));
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
        // Received stream walk + combine-output walk (the folded digest
        // table is cross-checked against the freshly written payload).
        r.vrf_seconds +=
            round_verify(cost, mode, verify, block_bytes / profile.ratio_at_depth(depth));
        r.vrf_seconds += round_verify(
            cost, mode, verify,
            block_bytes / profile.ratio_at_depth(std::min(depth + 1, nranks)));
      }
      if (!fused_tail) {
        r.dpr_seconds += cost.seconds_fz_decompress(static_cast<size_t>(block_bytes), mode);
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
        r.vrf_seconds += round_verify(cost, Mode::kSingleThread, verify, block_bytes);
      }
      break;
    case Kernel::kCCollMultiThread:
    case Kernel::kCCollSingleThread: {
      // Gathered blocks are fully reduced: depth N.
      const double ratio = profile.ratio_at_depth(nranks);
      r.cpr_seconds += cost.seconds_fz_compress(static_cast<size_t>(block_bytes), mode);
      for (int s = 0; s < nranks - 1; ++s) {
        r.mpi_seconds += transfer_at(net, block_bytes / ratio, flows);
        r.vrf_seconds += round_verify(cost, mode, verify, block_bytes / ratio);
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
        r.vrf_seconds += round_verify(cost, mode, verify, block_bytes / ratio);
      }
      r.dpr_seconds += cost.seconds_fz_decompress(total_bytes, mode);
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
      r.vrf_seconds +=
          round_verify(cost, mode, verify, total / profile.ratio_at_depth(depth));
      r.vrf_seconds += round_verify(
          cost, mode, verify, total / profile.ratio_at_depth(std::min(2 * depth, nranks)));
    } else {
      r.mpi_seconds += transfer_at(net, total, flows);
      r.cpt_seconds += cost.seconds_raw_sum(total_bytes, Mode::kSingleThread);
      r.vrf_seconds += round_verify(cost, Mode::kSingleThread, verify, total);
    }
  };

  if (hz) r.cpr_seconds += cost.seconds_fz_compress(total_bytes, mode);
  if (fold) exchange(1);
  for (int mask = 1, depth = fold ? 2 : 1; mask < p2; mask <<= 1, depth *= 2) exchange(depth);
  if (fold) {
    // Unfold: each folded rank receives the finished vector — the reduced
    // stream on the hZ stack, raw floats with a single-threaded digest walk
    // on the raw one.
    const double unfold = hz ? total / profile.ratio_at_depth(nranks) : total;
    r.mpi_seconds += transfer_at(net, unfold, flows);
    r.vrf_seconds += round_verify(cost, hz ? mode : Mode::kSingleThread, verify, unfold);
  }
  if (hz) r.dpr_seconds += cost.seconds_fz_decompress(total_bytes, mode);

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
          round_verify(cost, mode, verify, seg_bytes / profile.ratio_at_depth(depth));
      r.vrf_seconds += round_verify(
          cost, mode, verify,
          seg_bytes / profile.ratio_at_depth(std::min(2 * depth, nranks)));
    } else {
      r.mpi_seconds += transfer_at(net, seg_bytes, flows);
      r.cpt_seconds += cost.seconds_raw_sum(seg, Mode::kSingleThread);
      r.vrf_seconds += round_verify(cost, Mode::kSingleThread, verify, seg_bytes);
    }
    depth = std::min(2 * depth, nranks);
  }

  // Doubling allgather: segments are fully reduced (depth = nranks).
  const double full_ratio = profile.ratio_at_depth(nranks);
  for (int mask = 1; mask < nranks; mask <<= 1) {
    const double wire = hz ? seg_bytes / full_ratio : seg_bytes;
    r.mpi_seconds += transfer_at(net, wire, flows);
    r.vrf_seconds += round_verify(cost, hz ? mode : Mode::kSingleThread, verify, wire);
    seg_bytes *= 2.0;
  }
  if (hz) r.dpr_seconds += cost.seconds_fz_decompress(total_bytes, mode);

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

/// kFinal's single end-of-collective walk over the fully reduced stream
/// (kPerRound already charged every round; kOff charges nothing).
ModelResult charge_final_verify(ModelResult r, Kernel kernel, int nranks, size_t total_bytes,
                                const CompressionProfile& profile, const CostModel& cost,
                                VerifyPolicy verify) {
  if (verify != VerifyPolicy::kFinal) return r;
  const Mode mode = kernel_mode(kernel);
  const double bytes =
      kernel == Kernel::kMpi
          ? static_cast<double>(total_bytes)
          : static_cast<double>(total_bytes) / profile.ratio_at_depth(nranks);
  const double charge = cost.seconds_digest_verify(
      static_cast<size_t>(bytes), kernel == Kernel::kMpi ? Mode::kSingleThread : mode);
  r.vrf_seconds += charge;
  r.seconds += charge;
  return r;
}

}  // namespace

ModelResult model_collective(Kernel kernel, Op op, int nranks, size_t total_bytes,
                             const CompressionProfile& profile, const NetModel& net,
                             const CostModel& cost, coll::VerifyPolicy verify) {
  if (nranks < 2) throw Error("model_collective: need at least 2 ranks");
  const int flows = net.congestion_flows(nranks);
  ModelResult r;
  if (op == Op::kReduceScatter) {
    r = model_reduce_scatter_flows(kernel, nranks, flows, total_bytes, profile, net, cost,
                                   verify, /*fused_tail=*/false);
  } else {
    r = model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net, cost, verify);
  }
  return charge_final_verify(r, kernel, nranks, total_bytes, profile, cost, verify);
}

ModelResult model_allreduce_algo(Kernel kernel, coll::AllreduceAlgo algo, int nranks,
                                 size_t total_bytes, const CompressionProfile& profile,
                                 const NetModel& net, const CostModel& cost,
                                 coll::VerifyPolicy verify) {
  if (nranks < 2) throw Error("model_allreduce_algo: need at least 2 ranks");
  const int flows = net.congestion_flows(nranks);
  const auto finish = [&](ModelResult r) {
    return charge_final_verify(r, kernel, nranks, total_bytes, profile, cost, verify);
  };
  // C-Coll runs every allreduce as the ring (resolve_job_algo), so that is
  // what it costs under any requested schedule.
  const bool ccoll = kernel == Kernel::kCCollMultiThread || kernel == Kernel::kCCollSingleThread;
  if (ccoll && algo != coll::AllreduceAlgo::kAuto) algo = coll::AllreduceAlgo::kRing;
  switch (algo) {
    case coll::AllreduceAlgo::kAuto:
      throw Error("model_allreduce_algo: kAuto must be resolved by the caller");
    case coll::AllreduceAlgo::kRing:
      return finish(
          model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net, cost, verify));
    case coll::AllreduceAlgo::kRecursiveDoubling:
      return finish(model_recursive_doubling(kernel, nranks, flows, total_bytes, profile, net,
                                             cost, verify));
    case coll::AllreduceAlgo::kRabenseifner:
      if ((nranks & (nranks - 1)) != 0) {
        // Functional fallback: non-power-of-two runs the ring.
        return finish(model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net,
                                           cost, verify));
      }
      return finish(
          model_rabenseifner(kernel, nranks, flows, total_bytes, profile, net, cost, verify));
    case coll::AllreduceAlgo::kTwoLevel: {
      const int nnodes = net.topo.num_nodes(nranks);
      if (nnodes >= nranks) {
        // Flat topology: every rank is its own leader — exactly the ring.
        return finish(model_ring_allreduce(kernel, nranks, flows, total_bytes, profile, net,
                                           cost, verify));
      }
      // Intra-node phase: the leader drains ranks_per_node - 1 member
      // vectors serially over the fast channel and reduces each, then (after
      // the leader ring) re-broadcasts the finished vector.
      const int rpn = (nranks + nnodes - 1) / nnodes;
      const Mode mode = kernel_mode(kernel);
      const Mode intra_mode = kernel == Kernel::kMpi ? Mode::kSingleThread : mode;
      ModelResult intra;
      for (int m = 1; m < rpn; ++m) {
        intra.mpi_seconds += intra_transfer(net, static_cast<double>(total_bytes));
        intra.cpt_seconds += cost.seconds_raw_sum(total_bytes, intra_mode);
        // Member vectors cross the intra-node channel raw, guarded by the
        // content-digest trailer under per-round verification.
        intra.vrf_seconds +=
            round_verify(cost, intra_mode, verify, static_cast<double>(total_bytes));
      }
      intra.mpi_seconds += (rpn - 1) * net.intra_latency_s +
                           intra_transfer(net, static_cast<double>(total_bytes));
      intra.vrf_seconds +=
          round_verify(cost, intra_mode, verify, static_cast<double>(total_bytes));
      intra.seconds = intra.mpi_seconds + intra.cpt_seconds + intra.vrf_seconds;
      if (nnodes < 2) return finish(intra);
      // One leader per node: the inter-node ring sees nnodes flows.
      const ModelResult ring =
          model_ring_allreduce(kernel, nnodes, nnodes, total_bytes, profile, net, cost, verify);
      return finish(combine(intra, ring));
    }
  }
  throw Error("model_allreduce_algo: unknown algorithm");
}

}  // namespace hzccl::cluster
