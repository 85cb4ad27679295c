#include "hzccl/kernels/dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "hzccl/util/contracts.hpp"
#include "hzccl/util/cpu.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::kernels {

namespace detail {
bool populate_scalar(KernelTable& t);
bool populate_avx2(KernelTable& t);
bool populate_avx512(KernelTable& t);
}  // namespace detail

namespace {

struct Registry {
  KernelTable tables[kNumDispatchLevels];
  bool compiled[kNumDispatchLevels] = {};

  Registry() {
    // Each level starts from the table below it, so entries a level does not
    // hand-vectorize alias the best lower implementation and every slot of a
    // compiled table is callable.
    compiled[0] = detail::populate_scalar(tables[0]);
    tables[1] = tables[0];
    compiled[1] = detail::populate_avx2(tables[1]);
    if (!compiled[1]) tables[1] = tables[0];
    tables[2] = compiled[1] ? tables[1] : tables[0];
    compiled[2] = detail::populate_avx512(tables[2]);
    if (!compiled[2]) tables[2] = tables[1];
  }
};

const Registry& registry() {
  static const Registry reg;
  return reg;
}

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<uint64_t> g_swaps{0};

DispatchLevel clamp_supported(DispatchLevel request) {
  int lvl = static_cast<int>(request);
  while (lvl > 0 && !level_supported(static_cast<DispatchLevel>(lvl))) --lvl;
  return static_cast<DispatchLevel>(lvl);
}

DispatchLevel activate(DispatchLevel request) {
  const DispatchLevel lvl = clamp_supported(request);
  g_active.store(&registry().tables[static_cast<int>(lvl)], std::memory_order_release);
  g_swaps.fetch_add(1, std::memory_order_relaxed);
  return lvl;
}

DispatchLevel resolve_env_level() {
  const char* env = std::getenv("HZCCL_KERNEL_LEVEL");
  if (env != nullptr && *env != '\0') {
    if (auto parsed = parse_level(env)) return *parsed;
    std::fprintf(stderr,
                 "hzccl: unrecognized HZCCL_KERNEL_LEVEL=\"%s\" "
                 "(expected scalar|avx2|avx512); using best supported level\n",
                 env);
  }
  return best_supported_level();
}

// One-time lazy init, out of line and cold: the env parse builds a
// std::string and the registry construction runs static-guard machinery,
// none of which belongs on active()'s steady-state frame (tools/analyze
// lists this as a sanctioned cold exit).
HZCCL_COLD const KernelTable* activate_from_env_slow() {
  activate(resolve_env_level());
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* level_name(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<DispatchLevel> parse_level(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "scalar") return DispatchLevel::kScalar;
  if (lower == "avx2") return DispatchLevel::kAvx2;
  if (lower == "avx512") return DispatchLevel::kAvx512;
  return std::nullopt;
}

bool level_compiled(DispatchLevel level) {
  const int lvl = static_cast<int>(level);
  if (lvl < 0 || lvl >= kNumDispatchLevels) return false;
  return registry().compiled[lvl];
}

bool level_supported(DispatchLevel level) {
  if (!level_compiled(level)) return false;
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kAvx2:
      return cpu_supports_avx2();
    case DispatchLevel::kAvx512:
      return cpu_supports_avx2() && cpu_supports_avx512();
  }
  return false;
}

DispatchLevel best_supported_level() {
  return clamp_supported(static_cast<DispatchLevel>(kNumDispatchLevels - 1));
}

std::vector<DispatchLevel> supported_levels() {
  std::vector<DispatchLevel> out;
  for (int lvl = 0; lvl < kNumDispatchLevels; ++lvl) {
    if (level_supported(static_cast<DispatchLevel>(lvl))) {
      out.push_back(static_cast<DispatchLevel>(lvl));
    }
  }
  return out;
}

const KernelTable& table(DispatchLevel level) {
  if (!level_supported(level)) {
    throw Error(std::string("kernel level not supported on this host: ") + level_name(level));
  }
  return registry().tables[static_cast<int>(level)];
}

HZCCL_HOT const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) t = activate_from_env_slow();
  return *t;
}

DispatchLevel active_dispatch_level() { return active().level; }

DispatchLevel set_dispatch_level(DispatchLevel request) { return activate(request); }

DispatchLevel reload_from_env() { return activate(resolve_env_level()); }

uint64_t dispatch_swaps() { return g_swaps.load(std::memory_order_relaxed); }

}  // namespace hzccl::kernels

namespace hzccl {

HZCCL_HOT uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed) {
  return kernels::active().crc32c(data.data(), data.size(), seed);
}

}  // namespace hzccl
