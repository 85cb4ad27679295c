// Kernel-level microbenchmarks: the primitives whose cost structure the
// paper's design arguments rest on — whole-block encode/decode (the
// bit-shifting fixed-length codec), the fused classify-quantize-predict
// block pass, the compressors end-to-end, and hz_add versus doc_add.
//
// Two modes:
//  * default — the google-benchmark harness (filters, repetitions, etc.);
//  * --json [--quick] [--out PATH] [--alloc-budget N] [--simd-floor R]
//    [--verify-overhead P] —
//    the hand-timed perf-regression mode: emits BENCH_kernels.json with
//    GB/s per kernel × code length × dataset plus allocations-per-op measured
//    via the pool-stats hook (pool_heap_allocations counts fresh heap
//    blocks taken by the buffer pools and scratch arenas).  With
//    --alloc-budget N the run fails if any gated hot path (hz_add, the
//    ring collective, crc32c, the frame round trip) exceeds N allocations
//    per op in steady state — the CI regression gate.  crc32c (on a 1 MiB
//    payload and on 2 KiB ones; "payload_bytes" tells them apart), the
//    whole-block codec on the codec's 32-value block (decode_block,
//    encode_block; "bits" is the code length), the fused block pass on
//    32-value blocks of three datasets (fz_quantize_predict) and the four
//    chunk walks on one 16384-value chunk of 32-value blocks of each of
//    those datasets (decompress_chunk, fold_chunk, combine_chunk, and
//    compress_chunk without and with digests) are
//    measured once per supported dispatch level (tagged with a "level"
//    field); --simd-floor R fails the run if the best level's decode_block
//    at n = 32 over the measured code lengths together, or its
//    fz_quantize_predict, decompress_chunk, fold_chunk or either
//    compress_chunk entry over the three
//    datasets together, is below R× the scalar table's — the SIMD speedup gate on
//    the codec the library runs — or, when the best level is avx512, if its
//    1 MiB crc32c is below R× the avx2 level's (the carry-less fold against
//    the crc32 instruction).  Skipped on hosts whose best level is
//    scalar.  Each per-op entry's "gbps" is the median of kRepeats timed
//    runs, with their quartiles beside it ("gbps_q1", "gbps_q3").
//    --verify-overhead P fails the run if per-round ABFT digest verification
//    adds more than P% to the modeled end-to-end hZCCL allreduce at the
//    paper's scalability point (512 ranks x 8 MiB per rank, RoundSim +
//    paper-Broadwell cost model) — the integrity-cost gate.  The harness
//    also records the measured wall-clock ratio on the functional 8-rank
//    simulator for reference; only the modeled figure is gated, because a
//    single-core host serializes all 8 rank threads and so wildly
//    overstates what verification costs on a real node (see DESIGN.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hzccl/cluster/roundsim.hpp"
#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/format.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/quantize.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/compressor/szx_like.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/doc.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_ops.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/pool.hpp"
#include "hzccl/util/random.hpp"
#include "hzccl/util/timer.hpp"

namespace {

using namespace hzccl;

void BM_EncodeBlock(benchmark::State& state) {
  const int code_len = static_cast<int>(state.range(0));
  constexpr size_t n = 32;
  std::vector<int32_t> residuals(n);
  Rng rng(2);
  for (auto& r : residuals) {
    r = static_cast<int32_t>(rng.below(1ull << code_len)) - (1 << (code_len - 1));
  }
  std::vector<uint8_t> out(max_encoded_block_size(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_block(residuals.data(), n, out.data(), out.data() + out.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * sizeof(int32_t));
}
BENCHMARK(BM_EncodeBlock)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(31);

void BM_DecodeBlock(benchmark::State& state) {
  const int code_len = static_cast<int>(state.range(0));
  constexpr size_t n = 32;
  std::vector<int32_t> residuals(n);
  Rng rng(2);
  for (auto& r : residuals) {
    r = static_cast<int32_t>(rng.below(1ull << code_len)) - (1 << (code_len - 1));
  }
  std::vector<uint8_t> buf(max_encoded_block_size(n));
  const uint8_t* end = encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
  std::vector<int32_t> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_block(buf.data(), end, n, out.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * sizeof(int32_t));
}
BENCHMARK(BM_DecodeBlock)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(31);

std::vector<float> bench_field(DatasetId id) { return generate_field(id, Scale::kTiny, 0); }

void BM_FzCompress(benchmark::State& state) {
  const auto id = static_cast<DatasetId>(state.range(0));
  const std::vector<float> field = bench_field(id);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(field, 1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fz_compress(field, params).bytes.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * field.size() *
                          sizeof(float));
}
BENCHMARK(BM_FzCompress)->DenseRange(0, 4);

void BM_FzDecompress(benchmark::State& state) {
  const auto id = static_cast<DatasetId>(state.range(0));
  const std::vector<float> field = bench_field(id);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(field, 1e-3);
  const CompressedBuffer compressed = fz_compress(field, params);
  std::vector<float> out(field.size());
  for (auto _ : state) {
    fz_decompress(compressed, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * field.size() *
                          sizeof(float));
}
BENCHMARK(BM_FzDecompress)->DenseRange(0, 4);

void BM_SzpCompress(benchmark::State& state) {
  const auto id = static_cast<DatasetId>(state.range(0));
  const std::vector<float> field = bench_field(id);
  SzpParams params;
  params.abs_error_bound = abs_bound_from_rel(field, 1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(szp_compress(field, params).bytes.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * field.size() *
                          sizeof(float));
}
BENCHMARK(BM_SzpCompress)->DenseRange(0, 4);

void BM_HzAdd(benchmark::State& state) {
  const auto id = static_cast<DatasetId>(state.range(0));
  const std::vector<float> f0 = bench_field(id);
  const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = fz_compress(f0, params);
  const CompressedBuffer b = fz_compress(f1, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hz_add(a, b).bytes.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * f0.size() * sizeof(float));
}
BENCHMARK(BM_HzAdd)->DenseRange(0, 4);

void BM_DocAdd(benchmark::State& state) {
  const auto id = static_cast<DatasetId>(state.range(0));
  const std::vector<float> f0 = bench_field(id);
  const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = fz_compress(f0, params);
  const CompressedBuffer b = fz_compress(f1, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc_add(a, b).bytes.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * f0.size() * sizeof(float));
}
BENCHMARK(BM_DocAdd)->DenseRange(0, 4);

// ---------------------------------------------------------------------------
// --json mode: hand-timed perf-regression harness.
// ---------------------------------------------------------------------------

struct JsonOptions {
  bool quick = false;
  std::string out = "BENCH_kernels.json";
  double alloc_budget = -1.0;     ///< < 0 = no gate
  double simd_floor = -1.0;       ///< <= 0 = no gate
  double verify_overhead = -1.0;  ///< <= 0 = no gate (max % per-round verify may add)
};

/// Timed runs per entry: the entry reports their median and quartiles, so
/// a move can be told apart from the run-to-run spread.
constexpr int kRepeats = 5;

struct JsonEntry {
  std::string kernel;
  int bits = -1;        ///< code-length dimension (-1 = not applicable)
  long payload = -1;    ///< bytes per call, for crc32c (-1 = not applicable)
  std::string dataset;  ///< dataset slug (empty = not applicable)
  std::string level;    ///< forced dispatch level (empty = session default)
  double gbps = 0.0;     ///< median over the timed runs
  double gbps_q1 = 0.0;  ///< lower quartile (Tukey hinge), when repeats > 1
  double gbps_q3 = 0.0;  ///< upper quartile (Tukey hinge), when repeats > 1
  int repeats = 1;       ///< 1: a composite measurement (ring, verify overhead)
  double allocs_per_op = 0.0;
  bool gated = false;  ///< subject to the --alloc-budget check
};

/// Time `fn` in kRepeats repeat-until-deadline runs after warmup, reading
/// the pool-stats hook across the timed region.  Warmup runs the op enough
/// times for pools and arenas to reach steady state, so allocs_per_op
/// reports the *recycled* regime, not first-touch growth.
template <class Fn>
JsonEntry measure_json(const std::string& kernel, int bits, const std::string& dataset,
                       size_t bytes_per_op, double min_seconds, const Fn& fn) {
  for (int i = 0; i < 3; ++i) fn();
  const uint64_t alloc_before = pool_heap_allocations();
  size_t total_iters = 0;
  std::vector<double> gbps;
  for (int r = 0; r < kRepeats; ++r) {
    Timer timer;
    size_t iters = 0;
    do {
      fn();
      ++iters;
    } while (timer.seconds() < min_seconds);
    const double seconds = timer.seconds();
    gbps.push_back(gb_per_s(static_cast<double>(bytes_per_op) * static_cast<double>(iters),
                            seconds));
    total_iters += iters;
  }
  std::sort(gbps.begin(), gbps.end());
  JsonEntry e;
  e.kernel = kernel;
  e.bits = bits;
  e.dataset = dataset;
  e.gbps = gbps[kRepeats / 2];
  e.gbps_q1 = gbps[(kRepeats - 1) / 4];
  e.gbps_q3 = gbps[kRepeats - 1 - (kRepeats - 1) / 4];
  e.repeats = kRepeats;
  e.allocs_per_op = static_cast<double>(pool_heap_allocations() - alloc_before) /
                    static_cast<double>(total_iters);
  return e;
}

/// Steady-state allocation behavior of the ring collectives: repeated hZCCL
/// allreduces inside one simulated cluster (rank threads — and so their
/// thread-local pools — persist across iterations).  Counts fresh pool/arena
/// heap blocks across all ranks once warm; the pooled rounds should need
/// none.
JsonEntry measure_ring_allreduce(const JsonOptions& opts) {
  const int nranks = 4;
  const size_t elements = opts.quick ? (1u << 12) : (1u << 14);
  const int warm = 3;
  const int iters = opts.quick ? 5 : 20;

  std::vector<std::vector<float>> inputs;
  for (int r = 0; r < nranks; ++r) {
    inputs.push_back(generate_field(DatasetId::kRtmSim1, Scale::kTiny, static_cast<uint32_t>(r)));
    inputs.back().resize(elements, 0.0f);
  }
  coll::CollectiveConfig cfg;
  cfg.abs_error_bound = abs_bound_from_rel(inputs[0], 1e-3);
  cfg.mode = simmpi::Mode::kMultiThread;

  uint64_t alloc_before = 0;
  uint64_t alloc_after = 0;
  simmpi::Runtime rt(nranks, simmpi::NetModel::omnipath_100g());
  Timer timer;
  rt.run([&](simmpi::Comm& comm) {
    std::vector<float> out;
    const std::vector<float>& input = inputs[static_cast<size_t>(comm.rank())];
    for (int i = 0; i < warm; ++i) coll::hzccl_allreduce(comm, input, out, cfg);
    comm.barrier();
    if (comm.rank() == 0) alloc_before = pool_heap_allocations();
    comm.barrier();
    for (int i = 0; i < iters; ++i) coll::hzccl_allreduce(comm, input, out, cfg);
    comm.barrier();
    if (comm.rank() == 0) alloc_after = pool_heap_allocations();
  });
  const double seconds = timer.seconds();

  JsonEntry e;
  e.kernel = "hzccl_allreduce_ring";
  e.dataset = dataset_slug(DatasetId::kRtmSim1);
  // Wall-clock aggregate over all ranks' inputs — a simulator+kernel
  // throughput, not a modeled network figure.
  e.gbps = gb_per_s(static_cast<double>(elements) * sizeof(float) * nranks * iters, seconds);
  e.allocs_per_op = static_cast<double>(alloc_after - alloc_before) /
                    static_cast<double>(iters) / static_cast<double>(nranks);
  e.gated = true;
  return e;
}

/// Wall-clock cost of per-round verification on the functional 8-rank
/// simulator at 512 KiB per rank — a reference measurement, not the gate
/// (all 8 rank threads share this host's cores, so the serialized digest
/// walks overstate the at-scale cost the modeled gate below prices).
/// Times the steady-state collective loop on rank 0 between barriers (thread
/// spawn and first-touch pool growth excluded), best-of-N repeats per policy
/// so a scheduler hiccup in either run cannot fake a regression.  Returns the
/// two entries plus the measured overhead of VerifyPolicy::kPerRound over
/// kOff as a percentage.
struct VerifyOverhead {
  JsonEntry base;
  JsonEntry verified;
  double percent = 0.0;
};

VerifyOverhead measure_verify_overhead(const JsonOptions& opts) {
  const int nranks = 8;
  const size_t elements = (512u * 1024u) / sizeof(float);  // 512 KiB per rank
  const int warm = 2;
  const int iters = opts.quick ? 4 : 12;
  const int repeats = opts.quick ? 2 : 3;

  std::vector<std::vector<float>> inputs;
  for (int r = 0; r < nranks; ++r) {
    inputs.push_back(
        generate_field(DatasetId::kHurricane, Scale::kTiny, static_cast<uint32_t>(r)));
    inputs.back().resize(elements, 0.0f);
  }
  coll::CollectiveConfig cfg;
  cfg.abs_error_bound = abs_bound_from_rel(inputs[0], 1e-3);
  cfg.mode = simmpi::Mode::kMultiThread;

  const auto timed_run = [&](coll::VerifyPolicy policy) {
    coll::CollectiveConfig run_cfg = cfg;
    run_cfg.verify = policy;
    double best = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      double seconds = 0.0;
      simmpi::Runtime rt(nranks, simmpi::NetModel::omnipath_100g());
      rt.run([&](simmpi::Comm& comm) {
        std::vector<float> out;
        const std::vector<float>& input = inputs[static_cast<size_t>(comm.rank())];
        for (int i = 0; i < warm; ++i) coll::hzccl_allreduce(comm, input, out, run_cfg);
        comm.barrier();
        Timer timer;
        for (int i = 0; i < iters; ++i) coll::hzccl_allreduce(comm, input, out, run_cfg);
        comm.barrier();
        if (comm.rank() == 0) seconds = timer.seconds();
      });
      if (rep == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  const double off_s = timed_run(coll::VerifyPolicy::kOff);
  const double round_s = timed_run(coll::VerifyPolicy::kPerRound);
  const double bytes = static_cast<double>(elements) * sizeof(float) * nranks * iters;

  VerifyOverhead r;
  r.base.kernel = "hzccl_allreduce_512kx8";
  r.base.dataset = dataset_slug(DatasetId::kHurricane);
  r.base.gbps = gb_per_s(bytes, off_s);
  r.verified.kernel = "hzccl_allreduce_512kx8_verify_round";
  r.verified.dataset = dataset_slug(DatasetId::kHurricane);
  r.verified.gbps = gb_per_s(bytes, round_s);
  r.percent = off_s > 0 ? (round_s / off_s - 1.0) * 100.0 : 0.0;
  return r;
}

/// Modeled per-round verify overhead at the paper's scalability point: a
/// ring allreduce over 512 ranks x 8 MiB of floats per rank on the
/// Omni-Path fabric (the Fig 10/12 regime), priced by RoundSim with a
/// measured compression profile and the paper-Broadwell cost model.  This
/// is the gated figure: at scale the per-round digest walks (charged at
/// the cost model's digest_verify rate on *compressed* bytes) sit under
/// the congested inter-node transfers, which is the co-design claim the
/// gate protects.
double modeled_verify_overhead_pct(const JsonOptions& opts) {
  std::vector<std::vector<float>> fields;
  for (uint32_t i = 0; i < 6; ++i) {
    fields.push_back(generate_field(DatasetId::kHurricane, Scale::kTiny, i));
  }
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(fields[0], 1e-3);
  const auto profile =
      cluster::CompressionProfile::measure(fields, params, opts.quick ? 8 : 32);
  const auto net = simmpi::NetModel::omnipath_100g();
  const auto cost = simmpi::CostModel::paper_broadwell();
  constexpr int kRanks = 512;
  constexpr size_t kBytesPerRank = size_t{8} << 20;
  const auto modeled = [&](coll::VerifyPolicy verify) {
    return cluster::model_allreduce_algo(Kernel::kHzcclMultiThread, coll::AllreduceAlgo::kRing,
                                         kRanks, kBytesPerRank, profile, net, cost, verify)
        .seconds;
  };
  const double off_s = modeled(coll::VerifyPolicy::kOff);
  const double round_s = modeled(coll::VerifyPolicy::kPerRound);
  return off_s > 0 ? (round_s / off_s - 1.0) * 100.0 : 0.0;
}

/// Code lengths of the block-kernel entries: the sign-plane-only 1, the
/// remainder-only 5 and 7, byte-plane-only 8 and 16, and the widest, 31.
const std::vector<int> kBlockCodeLengths = {1, 5, 7, 8, 16, 31};

/// The whole-block codec at the active level, on the fixed-length codec's
/// production block (n = 32), per code length, through the public entry
/// points (checks included): decode_block and encode_block_prepared.  One
/// op walks a ring of 64 blocks, so the timer read stays off the per-block
/// cost.  GB/s counts the 4-byte residuals decoded or encoded (n * 4 bytes
/// per block).
std::vector<JsonEntry> measure_block_kernels(double min_seconds) {
  constexpr size_t n = 32;
  constexpr size_t kBlocks = 64;
  const size_t bytes = kBlocks * n * sizeof(int32_t);
  std::vector<JsonEntry> out;
  for (const int c : kBlockCodeLengths) {
    Rng rng(static_cast<uint64_t>(c));
    std::vector<uint32_t> mags(n * kBlocks);
    std::vector<uint32_t> signs(n * kBlocks);
    for (size_t i = 0; i < mags.size(); ++i) {
      mags[i] = static_cast<uint32_t>(rng.below(uint64_t{1} << c));
      signs[i] = static_cast<uint32_t>(rng.below(2));
    }
    const size_t stride = max_encoded_block_size(n);
    std::vector<uint8_t> blocks(stride * kBlocks);
    for (size_t b = 0; b < kBlocks; ++b) {
      encode_block_prepared(mags.data() + b * n, signs.data() + b * n, n, c,
                            blocks.data() + b * stride, blocks.data() + (b + 1) * stride);
    }
    const auto block = [&](size_t b) { return blocks.data() + b * stride; };
    std::vector<int32_t> residuals(n * kBlocks);
    out.push_back(measure_json("decode_block", c, "", bytes, min_seconds, [&] {
      for (size_t b = 0; b < kBlocks; ++b) {
        decode_block(block(b), block(b) + stride, n, residuals.data() + b * n);
      }
      benchmark::DoNotOptimize(residuals.data());
      benchmark::ClobberMemory();
    }));
    std::vector<uint8_t> encoded(stride * kBlocks);
    out.push_back(measure_json("encode_block", c, "", bytes, min_seconds, [&] {
      for (size_t b = 0; b < kBlocks; ++b) {
        encode_block_prepared(mags.data() + b * n, signs.data() + b * n, n, c,
                              encoded.data() + b * stride, encoded.data() + (b + 1) * stride);
      }
      benchmark::DoNotOptimize(encoded.data());
      benchmark::ClobberMemory();
    }));
  }
  return out;
}

/// Datasets of the fz_quantize_predict entries.
const std::vector<DatasetId> kBlockPassDatasets = {DatasetId::kRtmSim1, DatasetId::kCesmAtm,
                                                   DatasetId::kHurricane};

/// The fused classify-quantize-predict slot at the active level on the
/// codec's production block (n = 32): one op walks a whole dataset field
/// block by block, carrying the chain as compress_chunk does.  GB/s counts
/// the input floats.
std::vector<JsonEntry> measure_block_pass(const std::vector<std::vector<float>>& fields,
                                          double min_seconds) {
  constexpr size_t n = 32;
  const kernels::KernelTable& table = kernels::active();
  std::vector<JsonEntry> out;
  for (size_t d = 0; d < kBlockPassDatasets.size(); ++d) {
    const std::vector<float>& field = fields[d];
    const double inv_twice_eb = 1.0 / (2.0 * abs_bound_from_rel(field, 1e-3));
    const size_t nblocks = field.size() / n;
    int64_t q[n];
    uint32_t mags[n];
    uint32_t signs[n];
    out.push_back(measure_json("fz_quantize_predict", -1, dataset_slug(kBlockPassDatasets[d]),
                               nblocks * n * sizeof(float), min_seconds, [&] {
      int32_t q_prev = 0;
      uint64_t guards = 0;
      for (size_t b = 0; b < nblocks; ++b) {
        const kernels::QuantizePredictResult r = table.fz_quantize_predict(
            field.data() + b * n, n, inv_twice_eb, q_prev, false, q, mags, signs);
        guards |= r.q_guard | r.max_mag;
        if (r.raw == kernels::RawVerdict::kNone) q_prev = static_cast<int32_t>(q[n - 1]);
      }
      benchmark::DoNotOptimize(guards);
      benchmark::ClobberMemory();
    }));
  }
  return out;
}

/// The four chunk slots at the active level, each on one 16384-value
/// chunk of 32-value blocks per dataset (fz_compress output, digests on,
/// one chunk): decompress_chunk and fold_chunk walk field 0's chunk,
/// combine_chunk adds field 1's chunk to it (hZ pipelines 1-4 as they
/// fall), and compress_chunk encodes field 0's values into it again,
/// without and with the digest fold (compress_chunk_digests).  GB/s counts
/// the 4-byte values walked (both operands' for combine_chunk).
std::vector<JsonEntry> measure_chunk_kernels(const std::vector<std::vector<float>>& fields,
                                             const std::vector<std::vector<float>>& others,
                                             double min_seconds) {
  constexpr size_t kChunkValues = 16384;
  const kernels::KernelTable& table = kernels::active();
  std::vector<JsonEntry> out;
  for (size_t d = 0; d < kBlockPassDatasets.size(); ++d) {
    const size_t count = std::min({kChunkValues, fields[d].size(), others[d].size()});
    FzParams p;
    p.abs_error_bound = abs_bound_from_rel(fields[d], 1e-3);
    p.block_len = 32;
    p.num_chunks = 1;
    p.emit_digests = true;
    const CompressedBuffer a = fz_compress(std::span(fields[d]).first(count), p);
    const CompressedBuffer b = fz_compress(std::span(others[d]).first(count), p);
    const FzView va = parse_fz(a.bytes);
    const FzView vb = parse_fz(b.bytes);
    const auto ca = va.chunk_payload(0);
    const auto cb = vb.chunk_payload(0);
    const Quantizer quant(p.abs_error_bound);
    const std::string slug = dataset_slug(kBlockPassDatasets[d]);
    const size_t bytes = count * sizeof(float);
    std::vector<float> floats(count);
    out.push_back(measure_json("decompress_chunk", -1, slug, bytes, min_seconds, [&] {
      benchmark::DoNotOptimize(table.decompress_chunk(ca.data(), ca.size(), count, 32,
                                                      va.chunk_outliers[0], quant.twice_eb,
                                                      floats.data()));
      benchmark::ClobberMemory();
    }));
    uint64_t sum = 0;
    uint64_t wsum = 0;
    out.push_back(measure_json("fold_chunk", -1, slug, bytes, min_seconds, [&] {
      benchmark::DoNotOptimize(
          table.fold_chunk(ca.data(), ca.size(), count, 32, va.chunk_outliers[0], &sum, &wsum));
      benchmark::DoNotOptimize(sum);
      benchmark::DoNotOptimize(wsum);
    }));
    std::vector<uint8_t> merged(((count + 31) / 32) * max_encoded_block_size(32));
    out.push_back(measure_json("combine_chunk", -1, slug, 2 * bytes, min_seconds, [&] {
      benchmark::DoNotOptimize(table.combine_chunk(ca.data(), ca.size(), cb.data(), cb.size(),
                                                   count, 32, +1, merged.data(), merged.size()));
      benchmark::ClobberMemory();
    }));
    for (const bool digest : {false, true}) {
      out.push_back(measure_json(digest ? "compress_chunk_digests" : "compress_chunk", -1, slug,
                                 bytes, min_seconds, [&] {
        benchmark::DoNotOptimize(table.compress_chunk(fields[d].data(), count, 32,
                                                      quant.inv_twice_eb, va.chunk_outliers[0],
                                                      digest, merged.data(), merged.size()));
        benchmark::ClobberMemory();
      }));
    }
  }
  return out;
}

int run_json_mode(const JsonOptions& opts) {
  // Per timed run; each entry takes kRepeats of them.
  const double min_seconds = opts.quick ? 0.01 : 0.1;
  std::vector<JsonEntry> entries;

  // Dispatched kernels: kernel × code length or dataset × dispatch level.
  // Every supported level is forced in turn so the JSON carries the scalar
  // baseline next to the SIMD tables — the --simd-floor gate reads the
  // spread, and the checked-in artifact documents the speedup.
  const std::vector<kernels::DispatchLevel> levels = kernels::supported_levels();
  const kernels::DispatchLevel prior_level = kernels::active_dispatch_level();
  // A 1 MiB wire payload: the size of one raw ring block of a 4 x 4 MiB
  // allreduce, checksummed twice per frame.  The 2 KiB entry checksums it
  // as 512 separate payloads, the frames of a raw recursive-doubling
  // allreduce over 512 floats (bench/e2e sched-mix's latency tenant).
  std::vector<uint8_t> wire(size_t{1} << 20);
  constexpr size_t kSmallPayload = 2048;
  {
    Rng rng(7);
    for (uint8_t& b : wire) b = static_cast<uint8_t>(rng.below(256));
  }
  std::vector<std::vector<float>> block_pass_fields;
  std::vector<std::vector<float>> second_fields;
  for (const DatasetId id : kBlockPassDatasets) {
    block_pass_fields.push_back(generate_field(id, Scale::kTiny, 0));
    second_fields.push_back(generate_field(id, Scale::kTiny, 1));
  }
  for (const kernels::DispatchLevel level : levels) {
    kernels::set_dispatch_level(level);
    const char* level_slug = kernels::level_name(level);
    uint32_t crc = 0;
    JsonEntry crc_entry = measure_json("crc32c", -1, "", wire.size(), min_seconds,
                                       [&] { benchmark::DoNotOptimize(crc = crc32c(wire, crc)); });
    JsonEntry small_crc_entry = measure_json("crc32c", -1, "", wire.size(), min_seconds, [&] {
      for (size_t at = 0; at < wire.size(); at += kSmallPayload) {
        benchmark::DoNotOptimize(
            crc = crc32c(std::span<const uint8_t>(wire).subspan(at, kSmallPayload), crc));
      }
    });
    crc_entry.payload = static_cast<long>(wire.size());
    small_crc_entry.payload = static_cast<long>(kSmallPayload);
    for (JsonEntry* e : {&crc_entry, &small_crc_entry}) {
      e->level = level_slug;
      e->gated = true;
      entries.push_back(*e);
    }
    for (JsonEntry& e : measure_block_kernels(min_seconds)) {
      e.level = level_slug;
      entries.push_back(std::move(e));
    }
    for (JsonEntry& e : measure_block_pass(block_pass_fields, min_seconds)) {
      e.level = level_slug;
      entries.push_back(std::move(e));
    }
    for (JsonEntry& e : measure_chunk_kernels(block_pass_fields, second_fields, min_seconds)) {
      e.level = level_slug;
      entries.push_back(std::move(e));
    }
  }
  kernels::set_dispatch_level(prior_level);

  // One frame round trip at the active dispatch level: encode_frame_into
  // (copy + seal) then decode_frame (validate) of the 1 MiB payload.
  std::vector<uint8_t> frame(simmpi::frame_size(wire.size()));
  uint64_t seq = 0;
  JsonEntry roundtrip =
      measure_json("frame_roundtrip", -1, "", wire.size(), min_seconds, [&] {
        simmpi::encode_frame_into(seq++, wire, frame);
        benchmark::DoNotOptimize(simmpi::decode_frame(frame).valid);
      });
  roundtrip.gated = true;
  entries.push_back(roundtrip);

  // Stream kernels: kernel × dataset, all on their pooled hot paths.
  const std::vector<DatasetId> datasets =
      opts.quick ? std::vector<DatasetId>{DatasetId::kRtmSim1, DatasetId::kCesmAtm}
                 : std::vector<DatasetId>{DatasetId::kRtmSim1, DatasetId::kRtmSim2,
                                          DatasetId::kNyx, DatasetId::kCesmAtm,
                                          DatasetId::kHurricane};
  BufferPool& pool = BufferPool::local();
  for (const DatasetId id : datasets) {
    const std::string slug = dataset_slug(id);
    const std::vector<float> f0 = generate_field(id, Scale::kTiny, 0);
    const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
    const size_t bytes = f0.size() * sizeof(float);

    FzParams fz;
    fz.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
    entries.push_back(measure_json("fz_compress", -1, slug, bytes, min_seconds, [&] {
      CompressedBuffer c = fz_compress(f0, fz, &pool);
      pool.release(std::move(c.bytes));
    }));

    const CompressedBuffer a = fz_compress(f0, fz);
    const CompressedBuffer b = fz_compress(f1, fz);
    std::vector<float> out(f0.size());
    entries.push_back(measure_json("fz_decompress", -1, slug, bytes, min_seconds,
                                   [&] { fz_decompress(a, out); }));

    JsonEntry hz = measure_json("hz_add", -1, slug, bytes, min_seconds, [&] {
      CompressedBuffer c = hz_add(a, b, nullptr, 0, &pool);
      pool.release(std::move(c.bytes));
    });
    hz.gated = true;
    entries.push_back(hz);

    // ABFT digest path: emission folded into the encode, the standalone
    // integer-domain verify walk, and algebraic digest folding inside the
    // combine.  Compare against fz_compress / hz_add above to read the
    // marginal cost of carrying digests.
    FzParams fzd = fz;
    fzd.emit_digests = true;
    entries.push_back(measure_json("fz_compress_digests", -1, slug, bytes, min_seconds, [&] {
      CompressedBuffer c = fz_compress(f0, fzd, &pool);
      pool.release(std::move(c.bytes));
    }));
    const CompressedBuffer ad = fz_compress(f0, fzd);
    const CompressedBuffer bd = fz_compress(f1, fzd);
    entries.push_back(measure_json("fz_verify_digests", -1, slug, bytes, min_seconds,
                                   [&] { benchmark::DoNotOptimize(fz_verify_digests(ad).ok); }));
    JsonEntry hzd = measure_json("hz_add_digests", -1, slug, bytes, min_seconds, [&] {
      CompressedBuffer c = hz_add(ad, bd, nullptr, 0, &pool);
      pool.release(std::move(c.bytes));
    });
    hzd.gated = true;
    entries.push_back(hzd);

    if (!opts.quick) {
      SzpParams szp;
      szp.abs_error_bound = fz.abs_error_bound;
      entries.push_back(measure_json("szp_compress", -1, slug, bytes, min_seconds, [&] {
        CompressedBuffer c = szp_compress(f0, szp, &pool);
        pool.release(std::move(c.bytes));
      }));
      SzxParams szx;
      szx.abs_error_bound = fz.abs_error_bound;
      entries.push_back(measure_json("szx_compress", -1, slug, bytes, min_seconds, [&] {
        CompressedBuffer c = szx_compress(f0, szx, &pool);
        pool.release(std::move(c.bytes));
      }));
      entries.push_back(measure_json("doc_add", -1, slug, bytes, min_seconds,
                                     [&] { benchmark::DoNotOptimize(doc_add(a, b).bytes.data()); }));
      const std::vector<CompressedBuffer> operands = [&] {
        std::vector<CompressedBuffer> ops;
        for (uint32_t i = 0; i < 8; ++i) {
          ops.push_back(fz_compress(generate_field(id, Scale::kTiny, i), fz));
        }
        return ops;
      }();
      entries.push_back(measure_json("hz_add_many8", -1, slug, bytes * 8, min_seconds, [&] {
        CompressedBuffer c = hz_add_many(operands, nullptr, 0, &pool);
        pool.release(std::move(c.bytes));
      }));
    }
  }

  entries.push_back(measure_ring_allreduce(opts));

  const VerifyOverhead verify = measure_verify_overhead(opts);
  entries.push_back(verify.base);
  entries.push_back(verify.verified);
  const double modeled_overhead = modeled_verify_overhead_pct(opts);

  std::FILE* f = std::fopen(opts.out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n", opts.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"hzccl-bench-kernels-v3\",\n  \"quick\": %s,\n",
               opts.quick ? "true" : "false");
  std::fprintf(f, "  \"dispatch_level\": \"%s\",\n", kernels::level_name(prior_level));
  std::fprintf(f, "  \"alloc_budget\": %s,\n",
               opts.alloc_budget < 0 ? "null" : std::to_string(opts.alloc_budget).c_str());
  std::fprintf(f, "  \"simd_floor\": %s,\n",
               opts.simd_floor <= 0 ? "null" : std::to_string(opts.simd_floor).c_str());
  std::fprintf(f, "  \"verify_overhead_pct\": %.2f,\n", modeled_overhead);
  std::fprintf(f, "  \"verify_overhead_wall_8rank_pct\": %.2f,\n", verify.percent);
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const JsonEntry& e = entries[i];
    std::fprintf(f, "    {\"kernel\": \"%s\", ", e.kernel.c_str());
    if (e.bits >= 0) std::fprintf(f, "\"bits\": %d, ", e.bits);
    if (e.payload >= 0) std::fprintf(f, "\"payload_bytes\": %ld, ", e.payload);
    if (!e.dataset.empty()) std::fprintf(f, "\"dataset\": \"%s\", ", e.dataset.c_str());
    if (!e.level.empty()) std::fprintf(f, "\"level\": \"%s\", ", e.level.c_str());
    std::fprintf(f, "\"gbps\": %.4f, ", e.gbps);
    if (e.repeats > 1) {
      std::fprintf(f, "\"gbps_q1\": %.4f, \"gbps_q3\": %.4f, ", e.gbps_q1, e.gbps_q3);
    }
    std::fprintf(f, "\"repeats\": %d, \"allocs_per_op\": %.4f, \"gated\": %s}%s\n", e.repeats,
                 e.allocs_per_op, e.gated ? "true" : "false", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  int failures = 0;
  for (const JsonEntry& e : entries) {
    const std::string label =
        e.payload >= 0 ? e.kernel + "/" + std::to_string(e.payload) + "B" : e.kernel;
    std::printf("%-22s %4s %-12s %-7s %10.3f GB/s [%.3f, %.3f] %8.2f allocs/op%s\n",
                label.c_str(), e.bits >= 0 ? std::to_string(e.bits).c_str() : "-",
                e.dataset.empty() ? "-" : e.dataset.c_str(),
                e.level.empty() ? "-" : e.level.c_str(), e.gbps, e.gbps_q1, e.gbps_q3,
                e.allocs_per_op, e.gated ? "  [gated]" : "");
    if (e.gated && opts.alloc_budget >= 0 && e.allocs_per_op > opts.alloc_budget) {
      std::fprintf(stderr,
                   "bench_kernels: %s (%s) spent %.2f allocations/op in steady state, "
                   "budget is %.2f\n",
                   e.kernel.c_str(), e.dataset.c_str(), e.allocs_per_op, opts.alloc_budget);
      ++failures;
    }
  }

  // SIMD speedup gate: the best level's whole-block decode, its
  // decode-dequantize, decode-fold and compress walks, and the fused block
  // pass at n = 32 (the loops the codec runs) must beat the scalar table by the
  // requested factor.  Scalar-only hosts have nothing to compare, so the
  // gate reports itself skipped.
  if (opts.simd_floor > 0) {
    const kernels::DispatchLevel best = kernels::best_supported_level();
    if (best == kernels::DispatchLevel::kScalar) {
      std::printf("simd-floor gate skipped: best supported level is scalar\n");
    } else {
      const auto find_gbps = [&](const char* kernel, int bits, const std::string& dataset,
                                 const char* level) {
        for (const JsonEntry& e : entries) {
          if (e.kernel == kernel && e.bits == bits && e.dataset == dataset && e.level == level) {
            return e.gbps;
          }
        }
        return 0.0;
      };
      const char* best_slug = kernels::level_name(best);
      // A production-path kernel at n = 32, gated on the time to process the
      // same bytes at each measured point (bits, dataset) together: equal
      // bytes per point, so the per-point seconds per GB add up.
      const auto gate_points = [&](const char* kernel, const char* points_label,
                                   const std::vector<std::pair<int, std::string>>& points) {
        double scalar_s = 0.0;
        double best_s = 0.0;
        for (const auto& [bits, dataset] : points) {
          const double scalar_gbps = find_gbps(kernel, bits, dataset, "scalar");
          const double best_gbps = find_gbps(kernel, bits, dataset, best_slug);
          scalar_s += scalar_gbps > 0 ? 1.0 / scalar_gbps : 0.0;
          best_s += best_gbps > 0 ? 1.0 / best_gbps : 0.0;
          const std::string point = bits >= 0 ? "c=" + std::to_string(bits) : dataset;
          std::printf("simd-floor %s n=32 %s: %s %.3f GB/s vs scalar %.3f GB/s (%.2fx)\n", kernel,
                      point.c_str(), best_slug, best_gbps, scalar_gbps,
                      scalar_gbps > 0 ? best_gbps / scalar_gbps : 0.0);
        }
        const double ratio = best_s > 0 ? scalar_s / best_s : 0.0;
        std::printf("simd-floor %s n=32, %s: %s %.2fx scalar (floor %.2fx)\n", kernel,
                    points_label, best_slug, ratio, opts.simd_floor);
        if (ratio < opts.simd_floor) {
          std::fprintf(stderr, "bench_kernels: %s n=32 at %s is %.2fx scalar, floor is %.2fx\n",
                       kernel, best_slug, ratio, opts.simd_floor);
          ++failures;
        }
      };
      std::vector<std::pair<int, std::string>> code_lengths;
      for (const int c : kBlockCodeLengths) code_lengths.emplace_back(c, "");
      gate_points("decode_block", "all code lengths", code_lengths);
      std::vector<std::pair<int, std::string>> dataset_points;
      for (const DatasetId id : kBlockPassDatasets) {
        dataset_points.emplace_back(-1, dataset_slug(id));
      }
      for (const char* kernel : {"fz_quantize_predict", "decompress_chunk", "fold_chunk",
                                 "compress_chunk", "compress_chunk_digests"}) {
        gate_points(kernel, "all datasets", dataset_points);
      }
      // The AVX-512 table's CRC must be its own carry-less fold, not the
      // crc32-instruction body it would inherit from the avx2 table.
      if (best == kernels::DispatchLevel::kAvx512) {
        const auto crc_gbps = [&](const char* level) {
          for (const JsonEntry& e : entries) {
            if (e.kernel == "crc32c" && e.payload == static_cast<long>(wire.size()) &&
                e.level == level) {
              return e.gbps;
            }
          }
          return 0.0;
        };
        const double avx512_gbps = crc_gbps("avx512");
        const double avx2_gbps = crc_gbps("avx2");
        const double ratio = avx2_gbps > 0 ? avx512_gbps / avx2_gbps : 0.0;
        std::printf("simd-floor crc32c 1 MiB: avx512 %.3f GB/s vs avx2 %.3f GB/s (%.2fx, floor %.2fx)\n",
                    avx512_gbps, avx2_gbps, ratio, opts.simd_floor);
        if (ratio < opts.simd_floor) {
          std::fprintf(stderr, "bench_kernels: crc32c 1 MiB at avx512 is %.2fx avx2, floor is %.2fx\n",
                       ratio, opts.simd_floor);
          ++failures;
        }
      }
    }
  }
  // Per-round verify overhead gate: at the paper's scalability point the
  // digest ladder must stay a rounding error next to the collective it
  // protects.  Always printed; enforced only when --verify-overhead is
  // given (CI passes 5).  The wall-clock 8-rank figure is reference only —
  // on this serialized single-host simulator it overstates the at-scale
  // cost by the rank count.
  std::printf("verify-overhead functional 8 ranks x 512KiB (wall, reference): off %.3f GB/s, "
              "round %.3f GB/s (%+.2f%%)\n",
              verify.base.gbps, verify.verified.gbps, verify.percent);
  std::printf("verify-overhead modeled 512 ranks x 8MiB (RoundSim, gated): %+.2f%% "
              "(budget %s)\n",
              modeled_overhead,
              opts.verify_overhead > 0 ? (std::to_string(opts.verify_overhead) + "%").c_str()
                                       : "none");
  if (opts.verify_overhead > 0 && modeled_overhead > opts.verify_overhead) {
    std::fprintf(stderr,
                 "bench_kernels: per-round verify adds %.2f%% to the modeled 512-rank x 8MiB "
                 "allreduce, budget is %.2f%%\n",
                 modeled_overhead, opts.verify_overhead);
    ++failures;
  }

  std::printf("wrote %s (%zu entries)\n", opts.out.c_str(), entries.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  JsonOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out = argv[++i];
    } else if (std::strcmp(argv[i], "--alloc-budget") == 0 && i + 1 < argc) {
      opts.alloc_budget = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--simd-floor") == 0 && i + 1 < argc) {
      opts.simd_floor = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--verify-overhead") == 0 && i + 1 < argc) {
      opts.verify_overhead = std::atof(argv[++i]);
    }
  }
  if (json) return run_json_mode(opts);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
