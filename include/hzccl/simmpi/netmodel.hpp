// α–β network model for the simulated interconnect.
//
// A point-to-point transfer of n bytes costs α + n/β.  The defaults model
// the paper's testbed: Intel Omni-Path at 100 Gbps with a realistic MPI
// efficiency factor and ~1.5 µs small-message latency.  A congestion factor
// scales effective bandwidth down when the fabric is loaded — the mechanism
// behind the paper's "more nodes, more congestion, compression helps more"
// observation (Figs 10/12).
//
// Topology: a NetModel optionally carries a node hierarchy (XHC-style).
// Ranks grouped `ranks_per_node` at a time share a node; links between
// co-located ranks are fast shared-memory-like channels (sub-µs latency,
// several hundred Gbps, no fabric congestion), while links between nodes
// traverse the congested fabric — and congestion is driven by the number of
// *nodes* (inter-node flows through the switch), not the global rank count.
// A flat topology (ranks_per_node <= 1) degenerates exactly to the original
// homogeneous model: every rank is its own node, no link is intra-node, and
// the congestion argument equals the rank count — so flat runs are
// byte-identical to the pre-topology model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace hzccl::simmpi {

/// Node/socket hierarchy of the simulated cluster: physical ranks are
/// grouped into nodes `ranks_per_node` at a time (rank r lives on node
/// r / ranks_per_node; a remainder node simply holds fewer ranks).
struct Topology {
  /// Ranks co-located per node; 0 or 1 means a flat (one-rank-per-node)
  /// topology, which reproduces the homogeneous α–β model exactly.
  int ranks_per_node = 0;

  bool flat() const { return ranks_per_node <= 1; }

  /// Node hosting physical rank `phys_rank`.
  int node_of(int phys_rank) const { return flat() ? phys_rank : phys_rank / ranks_per_node; }

  /// True when the two physical ranks share a node (never true when flat).
  bool same_node(int a, int b) const { return !flat() && node_of(a) == node_of(b); }

  /// Nodes spanned by a job of `nranks` ranks (== nranks when flat).
  int num_nodes(int nranks) const {
    if (flat()) return nranks;
    return (nranks + ranks_per_node - 1) / ranks_per_node;
  }
};

struct NetModel {
  double latency_s = 1.5e-6;          ///< α: per-message latency (inter-node)
  double bandwidth_gbps = 100.0;      ///< link signaling rate, Gbit/s
  double efficiency = 0.88;           ///< achievable fraction of signaling rate
  /// Saturating per-flow congestion: ring collectives drive every link of
  /// the job simultaneously, and shared switch uplinks degrade per-flow
  /// bandwidth as the job grows, flattening out once the fabric is fully
  /// loaded.  Calibrated so the paper's 512-node Allreduce tail speedups
  /// (1.88x single-thread / 5.58x multi-thread over MPI) reproduce:
  /// ~3 GB/s effective per flow at 64 nodes, ~1.8 GB/s at 512.
  double congestion_depth = 6.0;    ///< peak-to-saturated slowdown minus one
  double congestion_nodes = 100.0;  ///< e-folding job size of the saturation

  /// Node hierarchy (flat by default; see Topology).
  Topology topo;

  /// Intra-node channel: shared-memory-like transfers between co-located
  /// ranks.  No fabric congestion applies — the traffic never leaves the
  /// node.  Defaults model a modern dual-socket host (UPI/shared LLC copy).
  double intra_latency_s = 4e-7;       ///< α for co-located ranks
  double intra_bandwidth_gbps = 400.0; ///< intra-node copy bandwidth
  double intra_efficiency = 0.92;

  /// Effective payload bandwidth in bytes/second at a given inter-node flow
  /// count (historically the rank count; with a hierarchical topology the
  /// caller passes the *node* count).
  double effective_bytes_per_s(int nodes) const {
    const double load = nodes > 1 ? 1.0 - std::exp(-(nodes - 1) / congestion_nodes) : 0.0;
    const double congestion = 1.0 / (1.0 + congestion_depth * load);
    return bandwidth_gbps * 1e9 / 8.0 * efficiency * congestion;
  }

  /// Intra-node payload bandwidth in bytes/second (congestion-free).
  double intra_bytes_per_s() const {
    return intra_bandwidth_gbps * 1e9 / 8.0 * intra_efficiency;
  }

  /// Inter-node flows a job of `nranks` ranks drives through the fabric:
  /// the congestion argument for every inter-node transfer.
  int congestion_flows(int nranks) const { return topo.num_nodes(nranks); }

  /// Seconds to move `bytes` over one link within an `nodes`-rank job.
  double transfer_seconds(size_t bytes, int nodes) const {
    return latency_s + static_cast<double>(bytes) / effective_bytes_per_s(nodes);
  }

  /// Seconds for one NACK control message plus the retransmission of
  /// `bytes` — the recovery round-trip the fault-hardened transport charges
  /// when a frame was lost, held back, or rejected by its CRC.
  double retransmit_seconds(size_t bytes, int nodes) const {
    return latency_s + transfer_seconds(bytes, nodes);
  }

  // -- Topology-aware link costs (physical src/dst ranks). -------------------
  // With a flat topology these are *identical* to latency_s /
  // transfer_seconds / retransmit_seconds, so the pre-topology virtual
  // clocks replay byte for byte.

  /// Injection/per-message latency of the (src, dst) link.
  double link_latency_s(int src, int dst) const {
    return topo.same_node(src, dst) ? intra_latency_s : latency_s;
  }

  /// Seconds to move `bytes` from physical rank `src` to `dst` within an
  /// `nranks`-rank job: fast congestion-free channel intra-node, congested
  /// fabric (by inter-node flow count) otherwise, at no more than `rate_cap`
  /// bytes/second — a job's fair share of a fabric other jobs load too.
  double link_seconds(size_t bytes, int src, int dst, int nranks,
                      double rate_cap = std::numeric_limits<double>::infinity()) const {
    if (topo.same_node(src, dst)) {
      return intra_latency_s + static_cast<double>(bytes) / intra_bytes_per_s();
    }
    return latency_s + static_cast<double>(bytes) /
                           std::min(effective_bytes_per_s(congestion_flows(nranks)), rate_cap);
  }

  /// NACK + retransmission round-trip over the (src, dst) link, the resent
  /// bytes moving at no more than `rate_cap` bytes/second like any frame.
  double link_retransmit_seconds(size_t bytes, int src, int dst, int nranks,
                                 double rate_cap = std::numeric_limits<double>::infinity()) const {
    return link_latency_s(src, dst) + link_seconds(bytes, src, dst, nranks, rate_cap);
  }

  /// The paper's testbed fabric.
  static NetModel omnipath_100g() { return NetModel{}; }

  /// A slower commodity fabric, for sensitivity studies.
  static NetModel ethernet_25g() {
    NetModel m;
    m.latency_s = 5e-6;
    m.bandwidth_gbps = 25.0;
    m.efficiency = 0.85;
    return m;
  }

  /// The testbed fabric with ranks grouped `ranks_per_node` to a node.
  static NetModel omnipath_100g_nodes(int ranks_per_node) {
    NetModel m;
    m.topo.ranks_per_node = ranks_per_node;
    return m;
  }
};

}  // namespace hzccl::simmpi
