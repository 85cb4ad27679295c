#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <set>

#include "hzccl/cluster/roundsim.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/sched/engine.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/pool.hpp"

namespace e2e {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

using namespace hzccl;
using trace::EventKind;

constexpr size_t kKinds = trace::kNumEventKinds;

/// Trace ring capacity per rank stream.  The default (16384 events) is a
/// ~900 KiB ring per rank acquired on every call, which would dominate the
/// small workloads' traced time; one op records far fewer events than this,
/// and a run that drops any fails.
constexpr uint32_t kThreadedTraceEvents = 1024;
constexpr uint32_t kEngineTraceEvents = 4096;

/// Keeps replayed results observable so the compiler cannot drop the work.
volatile uint32_t g_sink = 0;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Counts of one op that must repeat exactly, op to op and run to run.
struct Exact {
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;  ///< payload bytes through Comm::send / Port::send
  uint64_t digests = 0;
  HzPipelineStats hz;
  simmpi::ClockReport slowest;
  double modeled_s = 0.0;  ///< slowest rank, or the batch makespan
  std::array<uint64_t, kKinds> kind_bytes{};
  uint64_t engine_jobs = 1;
  uint64_t fused = 0;
  double grant_wait_s = 0.0;  ///< mean virtual grant - enqueue
};

bool same(const Exact& a, const Exact& b) {
  return a.frames == b.frames && a.wire_bytes == b.wire_bytes && a.digests == b.digests &&
         a.hz.p1 == b.hz.p1 && a.hz.p2 == b.hz.p2 && a.hz.p3 == b.hz.p3 && a.hz.p4 == b.hz.p4 &&
         a.hz.raw == b.hz.raw && a.hz.copied_bytes == b.hz.copied_bytes &&
         a.hz.p4_elements == b.hz.p4_elements &&
         a.slowest.total_seconds == b.slowest.total_seconds &&
         a.slowest.bucket_seconds == b.slowest.bucket_seconds && a.modeled_s == b.modeled_s &&
         a.kind_bytes == b.kind_bytes && a.engine_jobs == b.engine_jobs && a.fused == b.fused &&
         a.grant_wait_s == b.grant_wait_s;
}

/// Sums payload bytes per event kind.  The zero-length algorithm marker (a
/// kPack span with aux >= kAuxAlgoBase) copies nothing, so it is skipped.
void add_kind_bytes(const trace::Trace& t, std::array<uint64_t, kKinds>& out) {
  for (const std::vector<trace::Event>& rank : t.ranks) {
    for (const trace::Event& e : rank) {
      if (e.kind == EventKind::kPack && e.aux >= trace::kAuxAlgoBase) continue;
      out[static_cast<size_t>(e.kind)] += e.bytes;
    }
  }
}

/// Median seconds per call of `fn`, over at least 3 calls and `budget_s`.
/// One span covers the whole loop.
template <class Fn>
double replay(SpanRecorder& spans, const char* name, double budget_s, Fn&& fn) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  do {
    const Clock::time_point t0 = Clock::now();
    fn();
    now = Clock::now();
    samples.push_back(seconds_between(t0, now));
  } while (samples.size() < 3 || seconds_between(start, now) < budget_s);
  spans.add(name, start, now, -1, 0);
  return median(samples);
}

/// Per-byte rates (bytes per second) of the transport primitives at one
/// message size.
struct WireRates {
  double frame = 0.0;  ///< encode_frame_into + decode_frame
  double crc = 0.0;    ///< crc32c
  double copy = 0.0;   ///< memcpy
  bool ok = true;
};

WireRates replay_wire(size_t message_bytes, std::span<const float> source, double budget_s,
                      SpanRecorder& spans) {
  const size_t m = std::max<size_t>(message_bytes, 1);
  std::vector<uint8_t> payload(m);
  const size_t have = std::min(m, source.size_bytes());
  for (size_t off = 0; off < m; off += have) {
    std::memcpy(payload.data() + off, source.data(), std::min(have, m - off));
  }
  // Small messages are timed in batches of about 1 MiB so one sample is far
  // above the clock's resolution.
  const size_t reps = std::max<size_t>(1, (size_t{1} << 20) / m);
  const double bytes = static_cast<double>(m * reps);
  std::vector<uint8_t> frame(simmpi::frame_size(m));
  std::vector<uint8_t> dst(m);

  WireRates r;
  r.frame = bytes / replay(spans, "replay.encode_decode_frame", budget_s, [&] {
              for (size_t k = 0; k < reps; ++k) {
                simmpi::encode_frame_into(k, payload, frame);
                if (!simmpi::decode_frame(frame).valid) r.ok = false;
              }
            });
  r.crc = bytes / replay(spans, "replay.crc32c", budget_s, [&] {
            uint32_t crc = 0;
            for (size_t k = 0; k < reps; ++k) crc = crc32c(payload, crc);
            g_sink = crc;
          });
  r.copy = bytes / replay(spans, "replay.memcpy", budget_s, [&] {
             for (size_t k = 0; k < reps; ++k) {
               std::memcpy(dst.data(), payload.data(), m);
               g_sink = dst[k % m];
             }
           });
  return r;
}

/// Blocks the codec replays run on: pair i is (rank 0's block i, rank 1's
/// block i) as the collective compresses them, with the workload's params.
struct BlockPairs {
  std::vector<std::vector<float>> a;
  std::vector<std::vector<float>> b;
  std::vector<FzParams> params;
};

struct CodecRates {
  double compress = 0.0;    ///< uncompressed bytes/s, with the workload's params
  double decompress = 0.0;  ///< uncompressed bytes/s
  double hz_add = 0.0;      ///< bytes/s of one uncompressed operand
  double verify = 0.0;      ///< compressed bytes/s
  double reduce = 0.0;      ///< bytes/s of the incoming float operand
  double emit_overhead_pct = 0.0;
  double ratio = 0.0;  ///< exact
  bool ok = true;
};

CodecRates replay_codec(const BlockPairs& blocks, double budget_s, SpanRecorder& spans) {
  CodecRates r;
  BufferPool pool;
  const size_t pairs = blocks.a.size();
  std::vector<CompressedBuffer> ca(pairs), cb(pairs), da(pairs), db(pairs);
  double operand_bytes = 0.0, compressed = 0.0, digest_compressed = 0.0;
  size_t largest = 0;
  for (size_t i = 0; i < pairs; ++i) {
    FzParams digests = blocks.params[i];
    digests.emit_digests = true;
    ca[i] = fz_compress(blocks.a[i], blocks.params[i]);
    cb[i] = fz_compress(blocks.b[i], blocks.params[i]);
    da[i] = fz_compress(blocks.a[i], digests);
    db[i] = fz_compress(blocks.b[i], digests);
    operand_bytes += static_cast<double>(blocks.a[i].size() * sizeof(float));
    compressed += static_cast<double>(ca[i].size_bytes() + cb[i].size_bytes());
    digest_compressed += static_cast<double>(da[i].size_bytes() + db[i].size_bytes());
    largest = std::max({largest, blocks.a[i].size(), blocks.b[i].size()});
  }
  const double raw_bytes = 2.0 * operand_bytes;
  r.ratio = raw_bytes / compressed;

  auto compress_all = [&](bool with_digests) {
    for (size_t i = 0; i < pairs; ++i) {
      FzParams p = blocks.params[i];
      p.emit_digests = with_digests;
      for (const std::vector<float>* x : {&blocks.a[i], &blocks.b[i]}) {
        CompressedBuffer c = fz_compress(*x, p, &pool);
        pool.release(std::move(c.bytes));
      }
    }
  };
  const double t_plain = replay(spans, "replay.fz_compress", budget_s, [&] { compress_all(false); });
  const double t_digests =
      replay(spans, "replay.fz_compress_digests", budget_s, [&] { compress_all(true); });
  r.compress = raw_bytes / (blocks.params.front().emit_digests ? t_digests : t_plain);
  r.emit_overhead_pct = 100.0 * (t_digests / t_plain - 1.0);

  std::vector<float> scratch(largest);
  r.decompress = raw_bytes / replay(spans, "replay.fz_decompress", budget_s, [&] {
                   for (size_t i = 0; i < pairs; ++i) {
                     fz_decompress(ca[i], std::span<float>(scratch.data(), blocks.a[i].size()), 1);
                     fz_decompress(cb[i], std::span<float>(scratch.data(), blocks.b[i].size()), 1);
                   }
                 });
  r.hz_add = operand_bytes / replay(spans, "replay.hz_add", budget_s, [&] {
               for (size_t i = 0; i < pairs; ++i) {
                 CompressedBuffer sum = hz_add(ca[i], cb[i], nullptr, 1, &pool);
                 pool.release(std::move(sum.bytes));
               }
             });
  r.verify = digest_compressed / replay(spans, "replay.fz_verify_digests", budget_s, [&] {
               for (size_t i = 0; i < pairs; ++i) {
                 if (!fz_verify_digests(da[i], 1).ok || !fz_verify_digests(db[i], 1).ok) {
                   r.ok = false;
                 }
               }
             });
  std::vector<std::vector<float>> acc = blocks.a;
  r.reduce = operand_bytes / replay(spans, "replay.reduce_combine_span", budget_s, [&] {
               for (size_t i = 0; i < pairs; ++i) {
                 coll::reduce_combine_span(coll::ReduceOp::kSum, acc[i].data(),
                                           blocks.b[i].data(), acc[i].size());
               }
               g_sink = static_cast<uint32_t>(acc[0][0]);
             });
  return r;
}

/// Scalars the per-layer metric set is assembled from.
struct LayerValues {
  double op_ms = 0.0;  ///< median traced op wall
  double core_overhead_ms = 0.0;
  double spawn_ms = 0.0;
  double run_ms = 0.0;
  double exec_overhead_ms = 0.0;
  double body_max_ms = 0.0;
  double body_mean_ms = 0.0;
  double skew = 0.0;
  double submit_us = 0.0;
  double jobs = 1.0;
  double model_s = 0.0;
  /// Threads the ranks' work spreads over: a bucket's total over all ranks
  /// divided by this is its share of the op's wall time.
  double lanes = 1.0;
  /// simmpi frames every message (CRC + copies); the engine copies once.
  bool framed = true;
  Exact exact;
  WireRates wire;
  CodecRates codec;
};

std::vector<Metric> assemble(const LayerValues& v, const UntracedPass& untraced) {
  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  const Exact& x = v.exact;
  const auto bytes_of = [&](EventKind k) {
    return static_cast<double>(x.kind_bytes[static_cast<size_t>(k)]);
  };

  add("core.wall_ms.p50", untraced.wall_ms_p50, "ms");
  add("core.wall_ms.p90", untraced.wall_ms_p90, "ms");
  add("core.cpu_ms.p50", untraced.cpu_ms_p50, "ms");
  add("bench.yardstick_ms", untraced.yardstick_ms, "ms");
  add("core.overhead_ms", v.core_overhead_ms, "ms");
  add("simmpi.spawn_ms", v.spawn_ms, "ms");
  add("simmpi.run_ms", v.run_ms, "ms");
  add("simmpi.overhead_ms", v.exec_overhead_ms, "ms");
  add("collectives.body_ms.max", v.body_max_ms, "ms");
  add("collectives.body_ms.mean", v.body_mean_ms, "ms");
  add("collectives.skew", v.skew, "ratio");
  add("collectives.reduce_gbps", v.codec.reduce / 1e9, "GB/s");
  add("simmpi.frames_per_op", static_cast<double>(x.frames), "count");
  add("simmpi.wire_mb_per_op", static_cast<double>(x.wire_bytes) / 1e6, "MB");
  add("simmpi.frame_gbps", v.wire.frame / 1e9, "GB/s");
  add("simmpi.copy_gbps", v.wire.copy / 1e9, "GB/s");
  add("util.crc32c_gbps", v.wire.crc / 1e9, "GB/s");
  add("compressor.fz_compress_gbps", v.codec.compress / 1e9, "GB/s");
  add("compressor.fz_decompress_gbps", v.codec.decompress / 1e9, "GB/s");
  add("compressor.ratio", v.codec.ratio, "ratio");
  add("homomorphic.hz_add_gbps", v.codec.hz_add / 1e9, "GB/s");
  const uint64_t blocks = x.hz.blocks();
  add("homomorphic.p4_share",
      blocks ? static_cast<double>(x.hz.p4) / static_cast<double>(blocks) : 0.0, "ratio");
  add("integrity.verify_gbps", v.codec.verify / 1e9, "GB/s");
  add("integrity.emit_overhead_pct", v.codec.emit_overhead_pct, "%");
  add("integrity.digests_per_op", static_cast<double>(x.digests), "count");
  add("util.pool_allocs_per_op", untraced.pool_allocs_per_op, "count");
  add("util.minflt_per_op", untraced.minflt_per_op, "count");
  add("sched.submit_us", v.submit_us, "us");
  add("sched.engine_jobs", static_cast<double>(x.engine_jobs), "count");
  add("sched.fused_frac", static_cast<double>(x.fused) / v.jobs, "ratio");
  add("sched.grant_wait_ms", x.grant_wait_s * 1e3, "vms");
  add("sched.wall_per_job_ms", v.op_ms / v.jobs, "ms");

  using simmpi::CostBucket;
  add("vclock.mpi_ms", x.slowest[CostBucket::kMpi] * 1e3, "vms");
  add("vclock.cpr_ms", x.slowest[CostBucket::kCpr] * 1e3, "vms");
  add("vclock.dpr_ms", x.slowest[CostBucket::kDpr] * 1e3, "vms");
  add("vclock.cpt_ms", x.slowest[CostBucket::kCpt] * 1e3, "vms");
  add("vclock.hpr_ms", x.slowest[CostBucket::kHpr] * 1e3, "vms");
  add("vclock.other_ms", x.slowest[CostBucket::kOther] * 1e3, "vms");
  add("cluster.model_ms", v.model_s * 1e3, "vms");
  add("cluster.drift_pct", 100.0 * std::abs(v.model_s / x.modeled_s - 1.0), "%");

  // Attribution: each event kind's bytes priced at the replayed rate of the
  // public function that does that work, spread over the lanes.
  const double ms = 1e3 / v.lanes;
  const double codec = (bytes_of(EventKind::kCompress) / v.codec.compress +
                        bytes_of(EventKind::kDecompress) / v.codec.decompress) * ms;
  const double combine = (bytes_of(EventKind::kHomReduce) / v.codec.hz_add +
                          bytes_of(EventKind::kReduce) / v.codec.reduce) * ms;
  const double digest = bytes_of(EventKind::kVerify) / v.codec.verify * ms;
  // A framed send copies the payload into the wire vector, frames it (copy
  // + two CRCs, priced by the frame replay) and copies it out on receive;
  // the engine copies it once.
  const double sent = bytes_of(EventKind::kSend);
  const double transport =
      (v.framed ? sent / v.wire.frame + 2.0 * sent / v.wire.copy : sent / v.wire.copy) * ms +
      bytes_of(EventKind::kPack) / v.wire.copy * ms;
  const double executor = v.spawn_ms;
  const double covered = codec + combine + digest + transport + executor;
  add("attrib.codec_ms", codec, "est_ms");
  add("attrib.combine_ms", combine, "est_ms");
  add("attrib.digest_ms", digest, "est_ms");
  add("attrib.transport_ms", transport, "est_ms");
  add("attrib.executor_ms", executor, "est_ms");
  add("attrib.unattributed_ms", v.op_ms - covered, "est_ms");
  add("attrib.covered_pct", 100.0 * covered / v.op_ms, "%");
  add("trace.overhead_pct", 100.0 * (v.op_ms / untraced.wall_ms_p50 - 1.0), "%");
  return m;
}

/// State both probes share: the report, each variant's exact counts and the
/// per-op walls.
class ProbeBase : public LayerProbe {
 protected:
  ProbeBase(SpanRecorder& spans, int variants)
      : spans_(spans), exact_(static_cast<size_t>(variants)) {}

  void failed(const std::string& error) {
    ++report_.failed;
    report_.error = error;
  }
  void differs(const std::string& error) {
    report_.identical = false;
    report_.error = error;
  }
  /// Records variant `variant`'s counts `e`, flagging the run when they
  /// differ from those of that variant's first traced op.
  void keep_exact(int variant, const Exact& e, uint64_t dropped_events) {
    std::optional<Exact>& first = exact_[static_cast<size_t>(variant)];
    if (!first) {
      first = e;
    } else if (!same(*first, e)) {
      differs("exact counts changed between traced ops");
    }
    if (dropped_events != 0) differs("the trace ring dropped events");
  }
  /// Fills the values every workload derives the same way.  The counts are
  /// those of the first variant, on whose inputs the replays also run.
  void common_values(LayerValues& v) const {
    v.exact = *exact_.front();
    v.op_ms = median(op_ms_);
    v.run_ms = median(run_ms_);
    v.core_overhead_ms = median(core_ms_);
  }
  LayerReport done(const LayerValues& v, const UntracedPass& untraced) {
    if (!v.codec.ok || !v.wire.ok) differs("a replayed call returned a wrong result");
    report_.metrics = assemble(v, untraced);
    return report_;
  }

  SpanRecorder& spans_;
  LayerReport report_;
  std::vector<std::optional<Exact>> exact_;  ///< per variant
  std::vector<double> op_ms_, run_ms_;
  std::vector<double> core_ms_;  ///< the façade's self time per op
  uint32_t op_id_ = 0;
};

// ---------------------------------------------------------------------------
// Threaded collectives: run_collective rebuilt from its public parts.
// ---------------------------------------------------------------------------

class ThreadedProbe final : public ProbeBase {
 public:
  ThreadedProbe(ThreadedCase& c, SpanRecorder& spans)
      : ProbeBase(spans, c.variants()), c_(c), w_(c.workload()), config_(c.config()) {
    config_.trace.enabled = true;
    config_.trace.capacity = kThreadedTraceEvents;
    cc_ = config_.collective_config(kernel_mode(w_.kernel));
    algo_ = w_.op == Op::kAllreduce ? config_.algo : coll::AllreduceAlgo::kRing;
  }

  void traced_op() override {
    const int n = w_.nranks;
    const int variant = c_.current();  // the variant the untraced op just ran
    const RankInputFn& input = c_.input(variant);
    const uint32_t op_id = ++op_id_;
    ++report_.attempted;
    JobResult result;
    // Per rank: f0/f1 bound the whole rank function, b0/b1 the stack call.
    const size_t slots = static_cast<size_t>(n);
    std::vector<Clock::time_point> f0(slots), b0(slots), b1(slots), f1(slots);
    std::vector<uint64_t> wire(slots, 0);
    std::mutex result_mutex;
    // The body of run_collective's rank function, with the stack call timed.
    auto rank_fn = [&](simmpi::Comm& comm) {
      const size_t r = static_cast<size_t>(comm.phys_rank());
      f0[r] = Clock::now();
      const std::vector<float> rank_input = input(comm.phys_rank());
      std::vector<float> output;
      HzPipelineStats stats;
      if (algo_ != coll::AllreduceAlgo::kRing && comm.tracer().enabled()) {
        trace::Event marker;
        marker.kind = EventKind::kPack;
        marker.aux = static_cast<uint8_t>(trace::kAuxAlgoBase + static_cast<int>(algo_));
        marker.bytes = rank_input.size() * sizeof(float);
        comm.tracer().record(marker);
      }
      b0[r] = Clock::now();
      comm.guarded([&] { w_.stack(comm, rank_input, output, cc_, &stats); });
      b1[r] = Clock::now();
      wire[r] = comm.bytes_sent();
      std::lock_guard<std::mutex> lock(result_mutex);
      result.pipeline_stats += stats;
      if (comm.rank() == 0) result.rank0_output = std::move(output);
      f1[r] = Clock::now();
    };

    Clock::time_point t_op0, t_run0, t_run1, t_op1;
    try {
      t_op0 = Clock::now();
      {
        simmpi::Runtime runtime(n, config_.net, config_.faults, config_.trace);
        t_run0 = Clock::now();
        result.per_rank = runtime.run(rank_fn);
        t_run1 = Clock::now();
        result.slowest = simmpi::Runtime::slowest(result.per_rank);
        result.transport = total_transport(runtime.transport_stats());
        result.integrity = total_integrity(runtime.integrity_stats());
        result.trace = runtime.trace();
      }
      t_op1 = Clock::now();
    } catch (const std::exception& e) {
      failed(e.what());
      return;
    }

    const int32_t op_span = spans_.add("core.run_collective", t_op0, t_op1, -1, op_id);
    const int32_t run_span = spans_.add("simmpi.Runtime::run", t_run0, t_run1, op_span, op_id);
    double worst = 0.0, sum = 0.0, slowest_fn = 0.0;
    for (int r = 0; r < n; ++r) {
      const size_t i = static_cast<size_t>(r);
      const int32_t fn_span = spans_.add("core.rank_fn", f0[i], f1[i], run_span, op_id, r + 1);
      spans_.add(w_.stack_name, b0[i], b1[i], fn_span, op_id, r + 1);
      const double body = ms_between(b0[i], b1[i]);
      worst = std::max(worst, body);
      sum += body;
      slowest_fn = std::max(slowest_fn, ms_between(f0[i], f1[i]));
    }
    op_ms_.push_back(ms_between(t_op0, t_op1));
    run_ms_.push_back(ms_between(t_run0, t_run1));
    // Self times along the critical path: the façade's share is the op
    // outside Runtime::run plus the slowest rank function outside the slowest
    // body (input fetch, result hand-off); the executor's is Runtime::run
    // outside the slowest rank function (thread spawn and join).
    core_ms_.push_back(op_ms_.back() - run_ms_.back() + slowest_fn - worst);
    body_max_.push_back(worst);
    body_mean_.push_back(sum / n);
    skew_.push_back(worst / (sum / n));
    exec_overhead_.push_back(run_ms_.back() - slowest_fn);

    const Check check = c_.check(variant, result);
    if (!check.ok) failed(check.error);
    const simmpi::ClockReport& reference_clock = c_.reference_clock(variant);
    if (!same_bytes(result.rank0_output, c_.reference_output(variant)) ||
        result.slowest.total_seconds != reference_clock.total_seconds ||
        result.slowest.bucket_seconds != reference_clock.bucket_seconds) {
      differs("traced rebuild differs from run_collective");
    }
    Exact e;
    e.frames = result.transport.frames_sent;
    for (const uint64_t bytes : wire) e.wire_bytes += bytes;
    e.digests = result.integrity.digests_checked;
    e.hz = result.pipeline_stats;
    e.slowest = result.slowest;
    e.modeled_s = result.slowest.total_seconds;
    add_kind_bytes(result.trace, e.kind_bytes);
    keep_exact(variant, e, result.trace.dropped_events);
  }

  LayerReport finish(const UntracedPass& untraced, double replay_s) override {
    if (!exact_.front()) return report_;
    const int n = w_.nranks;
    LayerValues v;
    common_values(v);
    v.body_max_ms = median(body_max_);
    v.body_mean_ms = median(body_mean_);
    v.skew = median(skew_);
    v.exec_overhead_ms = median(exec_overhead_);
    v.lanes = n;
    v.framed = true;

    v.spawn_ms = 1e3 * replay(spans_, "replay.runtime_spawn", replay_s, [&] {
                   simmpi::Runtime runtime(n, config_.net);
                   runtime.run([](simmpi::Comm&) {});
                 });
    v.submit_us = replay_submit(replay_s);

    const std::vector<std::vector<float>>& inputs = c_.inputs(0);
    const size_t total = inputs[0].size();
    BlockPairs blocks;
    const int nblocks = algo_ == coll::AllreduceAlgo::kRing ? n : 1;
    for (int b = 0; b < nblocks; ++b) {
      const Range r = coll::ring_block_range(total, nblocks, b);
      blocks.a.emplace_back(inputs[0].begin() + static_cast<ptrdiff_t>(r.begin),
                            inputs[0].begin() + static_cast<ptrdiff_t>(r.end));
      blocks.b.emplace_back(inputs[1].begin() + static_cast<ptrdiff_t>(r.begin),
                            inputs[1].begin() + static_cast<ptrdiff_t>(r.end));
      blocks.params.push_back(cc_.fz_params(r.size()));
    }
    v.codec = replay_codec(blocks, replay_s, spans_);
    const size_t message = v.exact.frames ? v.exact.wire_bytes / v.exact.frames : 0;
    v.wire = replay_wire(message, inputs[0], replay_s, spans_);

    const Clock::time_point t0 = Clock::now();
    const cluster::CompressionProfile profile =
        cluster::CompressionProfile::measure(inputs, cc_.fz_params(total), n);
    const size_t bytes = total * sizeof(float);
    v.model_s = (w_.op == Op::kReduceScatter
                     ? cluster::model_collective(w_.kernel, w_.op, n, bytes, profile,
                                                 config_.net, config_.cost, w_.verify)
                     : cluster::model_allreduce_algo(w_.kernel, algo_, n, bytes, profile,
                                                     config_.net, config_.cost, w_.verify))
                    .seconds;
    spans_.add("replay.cluster_model", t0, Clock::now(), -1, 0);
    return done(v, untraced);
  }

 private:
  /// Scheduler::submit of this workload's job, in microseconds per call.
  double replay_submit(double replay_s) {
    sched::SchedulerConfig sc;
    sc.engine.fleet_ranks = w_.nranks;
    sc.engine.net = config_.net;
    sched::TenantJobSpec spec;
    spec.kernel = w_.kernel;
    spec.op = w_.op == Op::kAllreduce ? sched::ICollOp::kAllreduce : sched::ICollOp::kReduceScatter;
    spec.config = c_.config();
    spec.input = c_.input(0);
    constexpr int kSubmits = 64;
    std::vector<double> per_submit;
    const Clock::time_point start = Clock::now();
    do {
      sched::Scheduler s(sc);
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kSubmits; ++k) s.submit(spec);
      per_submit.push_back(1e6 * seconds_between(t0, Clock::now()) / kSubmits);
    } while (per_submit.size() < 3 || seconds_between(start, Clock::now()) < replay_s);
    spans_.add("replay.scheduler_submit", start, Clock::now(), -1, 0);
    return median(per_submit);
  }

  ThreadedCase& c_;
  const Workload& w_;
  JobConfig config_;
  coll::CollectiveConfig cc_;
  coll::AllreduceAlgo algo_ = coll::AllreduceAlgo::kRing;
  std::vector<double> body_max_, body_mean_, skew_, exec_overhead_;
};

// ---------------------------------------------------------------------------
// The scheduler batch: the same Scheduler calls with engine tracing on.
// ---------------------------------------------------------------------------

class SchedProbe final : public ProbeBase {
 public:
  SchedProbe(SchedCase& c, SpanRecorder& spans)
      : ProbeBase(spans, c.variants()),
        c_(c),
        config_(c.config()),
        s0_(c.jobs(0).size()),
        s1_(c.jobs(0).size()) {
    config_.engine.trace.enabled = true;
    config_.engine.trace.capacity = kEngineTraceEvents;
  }

  void traced_op() override {
    const int variant = c_.current();  // the variant the untraced batch just ran
    const std::vector<SchedJob>& jobs = c_.jobs(variant);
    const uint32_t op_id = ++op_id_;
    ++report_.attempted;
    std::unique_ptr<sched::Scheduler> s;
    Clock::time_point t_op0, t_run0, t_run1;
    try {
      t_op0 = Clock::now();
      s = std::make_unique<sched::Scheduler>(config_);
      for (size_t j = 0; j < jobs.size(); ++j) {
        s0_[j] = Clock::now();
        s->submit(jobs[j].spec);
        s1_[j] = Clock::now();
      }
      t_run0 = Clock::now();
      s->run();
      t_run1 = Clock::now();
    } catch (const std::exception& e) {
      failed(e.what());
      return;
    }

    const int32_t op_span = spans_.add("core.scheduler_batch", t_op0, t_run1, -1, op_id);
    for (size_t j = 0; j < jobs.size(); ++j) {
      spans_.add("sched.Scheduler::submit", s0_[j], s1_[j], op_span, op_id);
      submit_us_.push_back(1e3 * ms_between(s0_[j], s1_[j]));
    }
    spans_.add("sched.Scheduler::run", t_run0, t_run1, op_span, op_id);
    op_ms_.push_back(ms_between(t_op0, t_run1));
    run_ms_.push_back(ms_between(t_run0, t_run1));
    core_ms_.push_back(op_ms_.back() - run_ms_.back());

    const Check check = c_.check(variant, *s);
    if (!check.ok) failed(check.error);
    const std::vector<sched::TenantJobResult>& results = s->results();
    const std::vector<std::vector<float>>& reference = c_.reference_outputs(variant);
    bool match =
        s->makespan() == c_.reference_makespan(variant) && results.size() == reference.size();
    for (size_t j = 0; j < results.size() && match; ++j) {
      match = same_bytes(results[j].rank0_output, reference[j]);
    }
    if (!match) differs("traced batch differs from the untraced one");

    const sched::Engine& engine = s->engine();
    Exact e;
    for (const TransportStats& t : engine.transport_stats()) e.frames += t.frames_sent;
    std::set<int> engine_jobs;
    double grant_wait = 0.0;
    for (const sched::TenantJobResult& r : results) {
      engine_jobs.insert(r.engine_job);
      e.fused += r.fused ? 1 : 0;
      grant_wait += r.grant_vtime - r.enqueue_vtime;
    }
    for (const int id : engine_jobs) {
      const sched::JobOutcome& out = engine.outcome(sched::Request{id});
      e.wire_bytes += out.payload_bytes_sent;
      e.hz += out.pipeline_stats;
      e.digests += out.integrity.digests_checked;
    }
    e.engine_jobs = engine_jobs.size();
    e.grant_wait_s = grant_wait / static_cast<double>(results.size());
    e.slowest = simmpi::Runtime::slowest(engine.clock_reports());
    e.modeled_s = s->makespan();
    const trace::Trace t = engine.trace();
    add_kind_bytes(t, e.kind_bytes);
    keep_exact(variant, e, t.dropped_events);
  }

  LayerReport finish(const UntracedPass& untraced, double replay_s) override {
    if (!exact_.front()) return report_;
    const std::vector<SchedJob>& jobs = c_.jobs(0);
    LayerValues v;
    common_values(v);
    v.submit_us = median(submit_us_);
    v.jobs = static_cast<double>(jobs.size());
    v.lanes = 1.0;  // the engine runs every rank of every job on this thread
    v.framed = false;

    v.spawn_ms = 1e3 * replay(spans_, "replay.scheduler_empty", replay_s, [&] {
                   sched::Scheduler s(c_.config());
                   s.run();
                 });

    // Collective bodies: each job alone on a fresh engine.  The jobs run one
    // after another on this thread, so what sharing one engine costs is the
    // batch's run time minus their sum.
    std::vector<std::vector<double>> solo(jobs.size());
    const Clock::time_point t0 = Clock::now();
    do {
      for (size_t j = 0; j < jobs.size(); ++j) {
        const sched::TenantJobSpec& spec = jobs[j].spec;
        sched::Engine engine(c_.config().engine);
        sched::SubmitOptions opt;
        opt.first_rank = spec.first_rank;
        opt.tenant = spec.tenant;
        const Clock::time_point b0 = Clock::now();
        engine.submit(spec.kernel, spec.op, spec.config, spec.input, opt);
        engine.run();
        solo[j].push_back(ms_between(b0, Clock::now()));
      }
    } while (solo[0].size() < 3 || seconds_between(t0, Clock::now()) < replay_s);
    spans_.add("replay.solo_jobs", t0, Clock::now(), -1, 0);
    double worst = 0.0, sum = 0.0;
    for (const std::vector<double>& samples : solo) {
      const double body = median(samples);
      worst = std::max(worst, body);
      sum += body;
    }
    v.body_max_ms = worst;
    v.body_mean_ms = sum / v.jobs;
    v.skew = worst / v.body_mean_ms;
    v.exec_overhead_ms = v.run_ms - sum;

    BlockPairs blocks;
    const Clock::time_point m0 = Clock::now();
    for (const SchedJob& job : jobs) {
      const JobConfig& jc = job.spec.config;
      std::vector<std::vector<float>> inputs;
      for (int r = 0; r < jc.nranks; ++r) inputs.push_back(job.spec.input(r));
      const coll::CollectiveConfig cc = jc.collective_config(kernel_mode(job.spec.kernel));
      blocks.a.push_back(inputs[0]);
      blocks.b.push_back(inputs[1]);
      blocks.params.push_back(cc.fz_params(inputs[0].size()));
      // RoundSim prices each job alone; the batch can finish no sooner than
      // its slowest job, so the model is the largest of them.
      const cluster::CompressionProfile profile =
          cluster::CompressionProfile::measure(inputs, blocks.params.back(), jc.nranks);
      v.model_s = std::max(
          v.model_s, cluster::model_allreduce_algo(job.spec.kernel, jc.algo, jc.nranks,
                                                   inputs[0].size() * sizeof(float), profile,
                                                   jc.net, jc.cost, jc.verify)
                         .seconds);
    }
    spans_.add("replay.cluster_model", m0, Clock::now(), -1, 0);
    v.codec = replay_codec(blocks, replay_s, spans_);
    const size_t message = v.exact.frames ? v.exact.wire_bytes / v.exact.frames : 0;
    v.wire = replay_wire(message, blocks.a.front(), replay_s, spans_);
    return done(v, untraced);
  }

 private:
  SchedCase& c_;
  sched::SchedulerConfig config_;
  std::vector<Clock::time_point> s0_, s1_;  ///< per-job submit span bounds
  std::vector<double> submit_us_;
};

}  // namespace

std::unique_ptr<LayerProbe> make_probe(Case& c, SpanRecorder& spans) {
  if (auto* threaded = dynamic_cast<ThreadedCase*>(&c)) {
    return std::make_unique<ThreadedProbe>(*threaded, spans);
  }
  return std::make_unique<SchedProbe>(dynamic_cast<SchedCase&>(c), spans);
}

}  // namespace e2e
