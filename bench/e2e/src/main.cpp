// hzccl-e2e: host benchmark of whole collectives.
//
//   hzccl_e2e --workload NAME --seconds T [--seed S] [--trace 0|1]
//             [--out DIR] [--trace-file PATH] [--revision REV]
//   hzccl_e2e --list
//
// --trace 0 sets the workload up at least five times and for at least a
// second (each set-up generates the seed's inputs and runs 5 warm-up ops;
// the median of their normalised CPU times is setup_s), then runs a
// closed loop of ops for T seconds with tracing off and reports the
// end-to-end metrics.  The end-to-end times are process CPU time divided by
// the CPU time of a fixed yardstick job run after every op (see
// Yardstick); the traced pass reports the ops' raw CPU and wall times as
// core.cpu_ms.p50 and core.wall_ms.*.  --trace 1 sets up once, alternates
// untraced ops with traced rebuilds of the op for T seconds, then replays
// each layer's public functions and reports the per-layer metrics.  Either
// loop also runs until every input variant has had an op.  Every op's
// outputs are checked against the exact reduction, outside the timed region.
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every output was correct.  T has
// no default: run.sh passes BENCHMARK.json's run_seconds.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/pool.hpp"
#include "hzccl/util/threading.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

constexpr int kWarmupOps = 5;
constexpr size_t kSetups = 5;
constexpr double kSetupSeconds = 1.0;
// Rounds of the two chains of the yardstick's core: together 1.0-1.3 ms of
// CPU on a 4-vCPU Xeon guest.
constexpr uint64_t kYardstickHashRounds = 225000;
constexpr uint64_t kYardstickCallRounds = 45000;
// The yardstick's decode part: blocks of bit-packed fields, their length and
// widest field.  One round (every block once) is 0.2-0.35 ms there.
constexpr size_t kDecodeBlocks = 4096;
constexpr size_t kDecodeBlockLen = 32;
constexpr int kDecodeMaxBits = 16;

// glibc's malloc thresholds the binary fixes (see main); recorded in the
// environment stamp.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = 1 << 30;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  int trace = 0;
  std::string out_dir;
  std::string trace_file;
  std::string revision = "unknown";
  bool list = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: hzccl_e2e --workload NAME --seconds T [--seed S] [--trace 0|1]\n"
               "                 [--out DIR] [--trace-file PATH] [--revision REV]\n"
               "       hzccl_e2e --list\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out_dir = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      return false;
    }
  }
  return a.list || (!a.workload.empty() && a.seconds > 0.0);
}

double clock_ms(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

/// CPU time the process has used so far, in ms: every thread an op spawns
/// counts, exited ones too, and time the hypervisor takes the vCPU away does
/// not.  On a shared 4-vCPU guest an op's wall time moves with the other
/// guests' load (20-35% steal doubled the 4-rank ops' wall time) and with
/// any other runnable thread, since a ring waits for its slowest rank; its
/// CPU time moved 2-5% in the same runs.
double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

volatile uint64_t yardstick_seed = 0x9E3779B97F4A7C15ull;
volatile uint64_t yardstick_sink = 0;

/// One of the 64 small functions the yardstick's call chain jumps between.
template <int N>
uint64_t yardstick_step(uint64_t x) {
  return (x ^ (x >> (N % 13 + 3))) * (0x9E3779B97F4A7C15ull + N);
}

template <int... N>
constexpr std::array<uint64_t (*)(uint64_t), sizeof...(N)> yardstick_steps(
    std::integer_sequence<int, N...>) {
  return {&yardstick_step<N>...};
}

/// Unpacks one block of kDecodeBlockLen W-bit fields, stored LSB first.
template <int W>
[[gnu::noinline]] void decode_block(const uint8_t* src, uint32_t* out) {
  uint64_t bits = 0;
  int have = 0;
  for (size_t i = 0; i < kDecodeBlockLen; ++i) {
    while (have < W) {
      bits |= uint64_t{*src++} << have;
      have += 8;
    }
    out[i] = static_cast<uint32_t>(bits & ((uint64_t{1} << W) - 1));
    bits >>= W;
    have -= W;
  }
}

template <int... W>
constexpr std::array<void (*)(const uint8_t*, uint32_t*), sizeof...(W)> decode_blocks(
    std::integer_sequence<int, W...>) {
  return {&decode_block<W + 1>...};
}

/// The fixed job run after every op: a job of the benchmark's own that no
/// library change can move.  Its CPU time is what the end-to-end times are
/// divided by (see README.md, "Why normalised CPU time").
///
/// Process CPU time moves with the host: the other guests' load changes the
/// clock and what a vCPU's core sibling takes, from second to second and in
/// levels that last minutes.  The yardstick is made to move with an op:
///  - its core keeps to registers and a few KiB of code, so it leaves the
///    caches as the op left them and finds them alike whatever the op did: a
///    dependent chain of integer multiplies and shifts, then a chain of
///    indirect calls through a table of 64 functions.  It follows the clock.
///  - its decode part unpacks 4096 blocks of 32 bit-packed fields, each
///    block through the function for its own width (2 to 16 bits, a fixed
///    random walk): the shape of a block codec's decoder.  The library's
///    codec kernels ran up to 2x slower in some seconds while the core
///    slowed by a fifth; this part slows with them.
/// How many decode rounds follow the core is the workload's
/// `yardstick_decode_rounds`, set from how much of its op is such code.
class Yardstick {
 public:
  explicit Yardstick(int decode_rounds)
      : decode_rounds_(decode_rounds),
        widths_(kDecodeBlocks),
        packed_(kDecodeBlocks * kDecodeBlockLen * kDecodeMaxBits / 8),
        out_(kDecodeBlocks * kDecodeBlockLen) {
    uint64_t x = 0x2545F4914F6CDD1Dull;  // fixed: the job is the same for every seed
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    int width = 8;
    for (uint8_t& w : widths_) {
      width = std::clamp(width + static_cast<int>(next() % 3) - 1, 2, kDecodeMaxBits);
      w = static_cast<uint8_t>(width);
    }
    for (uint8_t& b : packed_) b = static_cast<uint8_t>(next());
  }

  /// Thread CPU time of one run, in ms.
  double run_ms() {
    static constexpr auto kSteps = yardstick_steps(std::make_integer_sequence<int, 64>{});
    static constexpr auto kDecode =
        decode_blocks(std::make_integer_sequence<int, kDecodeMaxBits>{});
    const double t0 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
    uint64_t h = yardstick_seed;
    for (uint64_t i = 0; i < kYardstickHashRounds; ++i) {
      h ^= i;
      h *= 0x100000001B3ull;
      h ^= h >> 29;
    }
    for (uint64_t i = 0; i < kYardstickCallRounds; ++i) h = kSteps[(h >> 7) & 63](h);
    for (int r = 0; r < decode_rounds_; ++r) {
      const uint8_t* src = packed_.data();
      for (size_t b = 0; b < kDecodeBlocks; ++b) {
        kDecode[widths_[b] - 1](src, out_.data() + b * kDecodeBlockLen);
        src += kDecodeBlockLen * widths_[b] / 8;
      }
      h += out_[static_cast<size_t>(r) % out_.size()];
    }
    yardstick_sink = h;
    return clock_ms(CLOCK_THREAD_CPUTIME_ID) - t0;
  }

 private:
  int decode_rounds_;
  std::vector<uint8_t> widths_;
  std::vector<uint8_t> packed_;
  std::vector<uint32_t> out_;
};

/// Outcome of a run of timed ops.
struct Pass {
  std::vector<double> wall_ms;       ///< ops that returned
  std::vector<double> cpu_ms;        ///< process CPU time of the same ops
  std::vector<double> yardstick_ms;  ///< the yardstick run after each of them
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double err_ratio_max = 0.0;
  std::string error;
};

/// One closed-loop step: the op is timed, its check is not, and the
/// yardstick runs after the check.
void step(Case& c, Yardstick& yardstick, Pass& p) {
  ++p.attempted;
  const double cpu0 = process_cpu_ms();
  const Clock::time_point t0 = Clock::now();
  Check check;
  try {
    c.op();
    const double ms = ms_between(t0, Clock::now());
    const double cpu_ms = process_cpu_ms() - cpu0;
    check = c.check();
    p.wall_ms.push_back(ms);
    p.cpu_ms.push_back(cpu_ms);
    p.yardstick_ms.push_back(yardstick.run_ms());
  } catch (const std::exception& e) {
    check.ok = false;
    check.error = e.what();
  }
  p.err_ratio_max = std::max(p.err_ratio_max, check.err_ratio);
  if (!check.ok) {
    ++p.failed;
    p.error = check.error;
  }
}

/// A pass ready for `seconds` of ops.  The samples are reserved up front
/// (from the fastest warm-up op) so that growing them neither copies nor
/// leaves freed blocks behind in peak_rss_mb.
Pass reserved_pass(const Pass& warm, double seconds) {
  const double fastest_ms =
      warm.wall_ms.empty() ? 1.0 : *std::min_element(warm.wall_ms.begin(), warm.wall_ms.end());
  const size_t ops = static_cast<size_t>(1.5 * seconds * 1e3 / std::max(fastest_ms, 1e-3)) + 64;
  Pass p;
  p.wall_ms.reserve(ops);
  p.cpu_ms.reserve(ops);
  p.yardstick_ms.reserve(ops);
  return p;
}

/// Whether a loop of ops started at `start` may stop: `seconds` have passed
/// and every input variant has had an op.
bool finished(Clock::time_point start, double seconds, const Pass& p, const Case& c) {
  return ms_between(start, Clock::now()) >= seconds * 1e3 &&
         p.attempted >= static_cast<uint64_t>(c.variants());
}

void timed_pass(Case& c, Yardstick& yardstick, double seconds, Pass& p) {
  const Clock::time_point start = Clock::now();
  do {
    step(c, yardstick, p);
  } while (!finished(start, seconds, p, c));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<uint64_t>(u.ru_minflt);
}

/// Each op's CPU time over that of the yardstick run right after it, in
/// normalised ms: one normalised ms is one yardstick.  The host's speed
/// changes from second to second, and the op and its own yardstick meet the
/// same second.
std::vector<double> normalised_ms(const Pass& p) {
  std::vector<double> out(p.cpu_ms.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = p.cpu_ms[i] / p.yardstick_ms[i];
  return out;
}

std::vector<Metric> end_to_end(const Pass& p, const Case& c, const std::vector<double>& setup_s) {
  const double rss_mb = peak_rss_mb();  // before the copies below
  const std::vector<double> ms = normalised_ms(p);
  double seconds = 0.0;
  for (const double x : ms) seconds += x / 1e3;
  return {
      {"norm_cpu_ms.p50", quantile(ms, 0.5), "norm_ms"},
      {"norm_cpu_ms.p90", quantile(ms, 0.9), "norm_ms"},
      {"gb_per_norm_cpu_s", c.input_bytes() * static_cast<double>(ms.size()) / seconds / 1e9,
       "GB/norm_s"},
      {"modeled_ms", c.modeled_s() * 1e3, "vms"},
      {"err_ratio.max", p.err_ratio_max, "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// JSON number with every digit; a non-finite value has no JSON spelling.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n' || ch == '\t') ? ' ' : ch;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

/// What a result was measured on.  compare.py refuses to compare results
/// whose stamps differ in anything but the revision.
std::string stamp_json(const std::string& revision) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"revision\": " + json_string(revision) + ", \"dispatch\": " +
         json_string(hzccl::kernels::level_name(hzccl::kernels::active_dispatch_level())) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"llc_bytes\": " + std::to_string(llc > 0 ? llc : 0) + ", \"compiler\": " +
         json_string(E2E_COMPILER) + ", \"build_type\": " + json_string(E2E_BUILD_TYPE) +
         ", \"hzccl_trace\": " + json_string(E2E_HZCCL_TRACE) +
         ", \"malloc\": " +
         json_string("mmap_threshold=" + std::to_string(kMmapThreshold) +
                     " trim_threshold=" + std::to_string(kTrimThreshold)) +
         "}";
}

/// Writes DIR/<workload>.t<trace>.<n>.json with the first unused n.
bool write_result(const Args& a, const std::string& body) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(a.out_dir, ec);
  for (int n = 1; n < 100000; ++n) {
    const fs::path path =
        fs::path(a.out_dir) / (a.workload + ".t" + std::to_string(a.trace) + "." +
                               std::to_string(n) + ".json");
    if (fs::exists(path)) continue;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs(body.c_str(), f);
    return std::fclose(f) == 0;
  }
  return false;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %-22.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // glibc adapts its mmap and trim thresholds as a process frees large
  // blocks, so whether a rank thread's multi-MiB buffers come back from an
  // arena or as freshly faulted pages depends on allocation history: the
  // 4 MiB workloads then land on per-op times up to 2x apart from process to
  // process.  Fixed thresholds remove that: buffers up to 32 MiB (glibc's
  // maximum threshold) come from the arenas, and freed memory is never
  // trimmed, so no call pays page faults for memory an earlier call freed.
  // This hides the fault cost of buffers the library allocates afresh on
  // every call; util.pool_allocs_per_op still counts those buffers.
  if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kTrimThreshold) != 1) {
    std::fprintf(stderr, "hzccl_e2e: cannot fix the malloc thresholds\n");
    return 1;
  }

  // The set-up's generators run on one OpenMP thread, as the ranks do
  // (host_threads = 1): OpenMP workers would otherwise add their spinning
  // to the process CPU time that setup_s measures.
  const hzccl::ScopedNumThreads one_thread(1);

  Args a;
  if (!parse(argc, argv, a)) return usage();
  if (a.list) {
    for (const Workload& w : workloads()) std::printf("%s\n", w.name);
    return 0;
  }
  const Workload* w = find_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "hzccl_e2e: unknown workload '%s' (see --list)\n", a.workload.c_str());
    return 2;
  }

  // Set-up: the seed's inputs and references, then the warm-up ops that let
  // pools, caches and lazy initialisation settle.  --trace 0 repeats it at
  // least kSetups times and for at least kSetupSeconds, so that setup_s is
  // the median of many samples even where one set-up takes milliseconds.
  // Like the op times, setup_s is process CPU time in normalised units: a
  // set-up's CPU time, less its warm-up ops' yardsticks, over their median.
  Yardstick yardstick(w->yardstick_decode_rounds);
  std::vector<double> setup_s;
  std::unique_ptr<Case> c;
  Pass warm;
  const Clock::time_point setup_start = Clock::now();
  do {
    c.reset();
    const size_t first = warm.yardstick_ms.size();
    const double cpu0 = process_cpu_ms();
    c = make_case(*w, a.seed);
    for (int i = 0; i < kWarmupOps; ++i) step(*c, yardstick, warm);
    const std::vector<double> yardsticks(warm.yardstick_ms.begin() + static_cast<ptrdiff_t>(first),
                                         warm.yardstick_ms.end());
    double cpu = process_cpu_ms() - cpu0;
    for (const double y : yardsticks) cpu -= y;
    setup_s.push_back(cpu / median(yardsticks) / 1e3);
  } while (a.trace == 0 && (setup_s.size() < kSetups ||
                            ms_between(setup_start, Clock::now()) < kSetupSeconds * 1e3));

  std::vector<Metric> metrics;
  std::vector<Metric> untraced_e2e;
  LayerReport layers;
  SpanRecorder spans;
  Pass p = reserved_pass(warm, a.seconds);
  if (a.trace == 0) {
    timed_pass(*c, yardstick, a.seconds, p);
    metrics = end_to_end(p, *c, setup_s);
  } else {
    // Untraced and traced ops alternate for the whole run.
    const std::unique_ptr<LayerProbe> probe = make_probe(*c, spans);
    uint64_t allocs = 0, faults = 0;
    const Clock::time_point start = Clock::now();
    do {
      const uint64_t allocs0 = hzccl::pool_heap_allocations();
      const uint64_t faults0 = minor_faults();
      step(*c, yardstick, p);
      allocs += hzccl::pool_heap_allocations() - allocs0;
      faults += minor_faults() - faults0;
      probe->traced_op();
    } while (!finished(start, a.seconds, p, *c));
    const double ops = static_cast<double>(p.attempted);
    UntracedPass u;
    u.wall_ms_p50 = median(p.wall_ms);
    u.wall_ms_p90 = quantile(p.wall_ms, 0.9);
    u.cpu_ms_p50 = median(p.cpu_ms);
    u.yardstick_ms = median(p.yardstick_ms);
    u.pool_allocs_per_op = static_cast<double>(allocs) / ops;
    u.minflt_per_op = static_cast<double>(faults) / ops;
    untraced_e2e = end_to_end(p, *c, setup_s);
    layers = probe->finish(u, std::clamp(a.seconds * 0.015, 0.02, 0.25));
    metrics = layers.metrics;
    if (!a.trace_file.empty() && !spans.write_chrome(a.trace_file)) {
      std::fprintf(stderr, "hzccl_e2e: cannot write %s\n", a.trace_file.c_str());
    }
  }

  const uint64_t attempted = p.attempted + layers.attempted;
  const uint64_t failed = warm.failed + p.failed + layers.failed;
  const bool correct = failed == 0 && layers.identical && !metrics.empty();
  std::string error = !warm.error.empty() ? warm.error : !p.error.empty() ? p.error : layers.error;

  std::printf("hzccl-e2e %s seed=%llu seconds=%g trace=%d: %llu ops, %llu failed%s\n", w->name,
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), correct ? "" : ", OUTPUT WRONG");
  if (!error.empty()) std::printf("  error: %s\n", error.c_str());
  std::printf("  stamp: %s\n", stamp_json(a.revision).c_str());
  print_metrics(metrics);

  if (!a.out_dir.empty()) {
    std::string body = "{\"schema\": \"hzccl-e2e-result-v1\", \"workload\": " +
                       json_string(w->name) + ", \"seed\": " + std::to_string(a.seed) +
                       ", \"seconds\": " + number(a.seconds) +
                       ", \"trace\": " + std::to_string(a.trace) +
                       ", \"stamp\": " + stamp_json(a.revision) +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"error\": " + json_string(error) +
                       ", \"metrics\": " + metrics_json(metrics);
    if (a.trace) {
      body += std::string(", \"identical\": ") + (layers.identical ? "true" : "false") +
              ", \"end_to_end\": " + metrics_json(untraced_e2e);
    }
    body += "}\n";
    if (!write_result(a, body)) {
      std::fprintf(stderr, "hzccl_e2e: cannot write a result into %s\n", a.out_dir.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
