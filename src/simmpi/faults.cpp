#include "hzccl/simmpi/faults.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "hzccl/util/bytes.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/raise.hpp"

namespace hzccl::simmpi {

namespace {

/// splitmix64 finalizer: the mixing half of hzccl::splitmix64 without the
/// sequential state update, usable as a pure hash stage.
HZCCL_HOT uint64_t mix_stage(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

HZCCL_HOT uint64_t fault_mix(uint64_t seed, uint64_t stream, uint64_t counter) {
  uint64_t h = mix_stage(seed + 0x9E3779B97F4A7C15ULL);
  h = mix_stage(h ^ stream);
  h = mix_stage(h ^ counter);
  return h;
}

HZCCL_HOT double fault_roll(uint64_t seed, FaultKind kind, int src, int dst, uint64_t counter) {
  // Pack the decision coordinates into one stream id; links and kinds get
  // independent streams so e.g. drop and corrupt decisions never correlate.
  const uint64_t stream = (static_cast<uint64_t>(kind) << 48) |
                          (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 24) |
                          static_cast<uint64_t>(static_cast<uint32_t>(dst));
  return static_cast<double>(fault_mix(seed, stream, counter) >> 11) * 0x1.0p-53;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  double* const slots[] = {&plan.corrupt,       &plan.reorder, &plan.duplicate,
                           &plan.stall,         &plan.mangle,  &plan.stall_seconds,
                           &plan.recv_timeout_s, &plan.sdc,    &plan.poison};
  size_t pos = 0;
  int field = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    try {
      if (field == 0) {
        plan.seed = std::stoull(token);
      } else if (field == 1) {
        plan.drop = std::stod(token);
      } else if (field - 2 < static_cast<int>(std::size(slots))) {
        *slots[field - 2] = std::stod(token);
      } else {
        throw Error("FaultPlan: too many fields in '" + spec + "'");
      }
    } catch (const std::logic_error&) {  // stoull/stod failures
      throw Error("FaultPlan: cannot parse '" + token + "' in '" + spec + "'");
    }
    ++field;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (field < 2) {
    throw Error("FaultPlan: expected at least 'seed,drop' in '" + spec + "'");
  }
  plan.validate();
  return plan;
}

void FaultPlan::validate() const {
  for (double p : {drop, corrupt, reorder, duplicate, stall, mangle, sdc, poison}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw Error("FaultPlan: probabilities must be in [0, 1]");
    }
  }
  for (double t : {stall_seconds, recv_timeout_s, fail_timeout_s}) {
    if (!(t > 0.0)) {
      throw Error("FaultPlan: stall_seconds/recv_timeout_s/fail_timeout_s must be > 0");
    }
  }
  for (const RankFault& f : rank_faults) {
    if (f.rank < -1) throw Error("FaultPlan: rank-fault rank must be >= -1");
    if (f.at_vtime < 0.0) throw Error("FaultPlan: rank-fault trigger time must be >= 0");
    if (f.kind == RankFaultKind::kStraggler && !(f.factor > 0.0)) {
      throw Error("FaultPlan: straggler factor must be > 0");
    }
  }
}

namespace {

/// Parse "key=value" pairs after the '@' of a rank-fault entry.
void apply_rank_fault_field(RankFault& fault, const std::string& token,
                            const std::string& entry) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) {
    throw Error("RankFault: expected key=value, got '" + token + "' in '" + entry + "'");
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  try {
    if (key == "rank") {
      fault.rank = std::stoi(value);
    } else if (key == "op") {
      fault.after_ops = std::stoull(value);
    } else if (key == "t") {
      fault.at_vtime = std::stod(value);
    } else if (key == "x") {
      fault.factor = std::stod(value);
    } else {
      throw Error("RankFault: unknown field '" + key + "' in '" + entry + "'");
    }
  } catch (const std::logic_error&) {  // stoi/stoull/stod failures
    throw Error("RankFault: cannot parse '" + value + "' in '" + entry + "'");
  }
}

}  // namespace

RankFault RankFault::parse(const std::string& entry) {
  RankFault fault;
  const size_t at = entry.find('@');
  const std::string kind = entry.substr(0, at);
  if (kind == "crash") {
    fault.kind = RankFaultKind::kCrash;
  } else if (kind == "hang") {
    fault.kind = RankFaultKind::kHang;
  } else if (kind == "straggler") {
    fault.kind = RankFaultKind::kStraggler;
  } else {
    throw Error("RankFault: unknown kind '" + kind + "' in '" + entry +
                "' (want crash|hang|straggler)");
  }
  if (at == std::string::npos) return fault;
  size_t pos = at + 1;
  while (pos <= entry.size()) {
    const size_t comma = entry.find(',', pos);
    apply_rank_fault_field(
        fault,
        entry.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos),
        entry);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return fault;
}

std::vector<RankFault> FaultPlan::parse_rank_faults(const std::string& spec) {
  std::vector<RankFault> faults;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t semi = spec.find(';', pos);
    const std::string entry =
        spec.substr(pos, semi == std::string::npos ? std::string::npos : semi - pos);
    if (!entry.empty()) faults.push_back(RankFault::parse(entry));
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  if (faults.empty()) {
    throw Error("RankFault: empty schedule '" + spec + "'");
  }
  return faults;
}

std::vector<RankFault> FaultPlan::resolve_rank_faults(int nranks) const {
  // PRNG stream tags of the seed-derived placement.
  constexpr uint64_t kRankStream = 0x52414E4BULL;  // "RANK"
  constexpr uint64_t kOpStream = 0x4F505321ULL;    // "OPS!"
  std::vector<RankFault> resolved = rank_faults;
  uint64_t idx = 0;
  for (RankFault& f : resolved) {
    if (f.rank < 0) {
      f.rank = static_cast<int>(fault_mix(seed, kRankStream, idx) % static_cast<uint64_t>(nranks));
    }
    if (f.rank >= nranks) {
      throw Error("FaultPlan: rank-fault rank " + std::to_string(f.rank) + " out of range for " +
                  std::to_string(nranks) + " ranks");
    }
    if (f.kind != RankFaultKind::kStraggler && f.after_ops == 0 && f.at_vtime <= 0.0) {
      // Seed-derived crash point: somewhere in the first rounds of a ring
      // schedule, so small collectives still hit it.
      f.after_ops = 1 + fault_mix(seed, kOpStream, idx) % 24;
    }
    ++idx;
  }
  return resolved;
}

RankFaultSlot rank_fault_slot(std::span<const RankFault> resolved, int rank) {
  RankFaultSlot slot;
  for (const RankFault& f : resolved) {
    if (f.rank != rank) continue;
    if (f.kind == RankFaultKind::kStraggler) {
      if (!slot.straggler) {
        slot.cost_factor = f.factor;
        slot.straggler = true;
      }
    } else if (slot.stop == nullptr) {
      slot.stop = &f;
    }
  }
  return slot;
}

std::string FaultPlan::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu drop=%g corrupt=%g reorder=%g dup=%g stall=%g mangle=%g"
                " sdc=%g poison=%g",
                static_cast<unsigned long long>(seed), drop, corrupt, reorder, duplicate,
                stall, mangle, sdc, poison);
  std::string out = buf;
  for (const RankFault& f : rank_faults) {
    const char* kind = f.kind == RankFaultKind::kCrash  ? "crash"
                       : f.kind == RankFaultKind::kHang ? "hang"
                                                        : "straggler";
    std::snprintf(buf, sizeof(buf), " %s@rank=%d", kind, f.rank);
    out += buf;
    if (f.kind == RankFaultKind::kStraggler) {
      std::snprintf(buf, sizeof(buf), ",x=%g", f.factor);
      out += buf;
    } else if (f.after_ops > 0) {
      std::snprintf(buf, sizeof(buf), ",op=%llu",
                    static_cast<unsigned long long>(f.after_ops));
      out += buf;
    } else if (f.at_vtime > 0.0) {
      std::snprintf(buf, sizeof(buf), ",t=%g", f.at_vtime);
      out += buf;
    }
  }
  return out;
}

RankFailedError::RankFailedError(std::vector<int> failed_ranks, uint32_t epoch)
    : Error([&] {
        std::string msg = "rank failure in epoch " + std::to_string(epoch) +
                          ": failed ranks {";
        for (size_t i = 0; i < failed_ranks.size(); ++i) {
          if (i) msg += ",";
          msg += std::to_string(failed_ranks[i]);
        }
        msg += "}";
        return msg;
      }()),
      failed_ranks_(std::move(failed_ranks)),
      epoch_(epoch) {}

double RetryPolicy::backoff_for(int attempt, uint64_t seed) const {
  double backoff = backoff_base_s;
  for (int i = 1; i < attempt; ++i) backoff *= backoff_factor;
  if (jitter > 0.0) {
    // Counter-based draw — the same pure-function discipline as fault_roll,
    // so a retried run replays exactly from (seed, attempt).
    const double u = static_cast<double>(
                         fault_mix(seed, 0xB0FFULL << 48, static_cast<uint64_t>(attempt)) >> 11) *
                     0x1.0p-53;
    backoff *= 1.0 + jitter * (2.0 * u - 1.0);
  }
  return backoff;
}

RetryPolicy RetryPolicy::parse(const std::string& spec) {
  RetryPolicy policy;
  double* const slots[] = {&policy.backoff_base_s, &policy.backoff_factor, &policy.jitter};
  size_t pos = 0;
  int field = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    try {
      if (field == 0) {
        policy.max_attempts = std::stoi(token);
      } else if (field - 1 < static_cast<int>(std::size(slots))) {
        *slots[field - 1] = std::stod(token);
      } else {
        throw Error("RetryPolicy: too many fields in '" + spec + "'");
      }
    } catch (const std::logic_error&) {
      throw Error("RetryPolicy: cannot parse '" + token + "' in '" + spec + "'");
    }
    ++field;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  policy.validate();
  return policy;
}

void RetryPolicy::validate() const {
  if (max_attempts < 1) throw Error("RetryPolicy: max_attempts must be >= 1");
  if (!(backoff_base_s > 0.0)) throw Error("RetryPolicy: backoff_base must be > 0");
  if (!(backoff_factor >= 1.0)) throw Error("RetryPolicy: backoff_factor must be >= 1");
  if (!(jitter >= 0.0 && jitter < 1.0)) throw Error("RetryPolicy: jitter must be in [0, 1)");
}

std::string RetryPolicy::describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "attempts=%d backoff=%gs x%g jitter=%g", max_attempts,
                backoff_base_s, backoff_factor, jitter);
  return buf;
}

HZCCL_HOT void seal_frame(uint64_t seq, std::span<uint8_t> frame, uint32_t payload_crc) {
  if (frame.size() < sizeof(FrameHeader)) {
    hzccl::detail::raise_capacity("seal_frame: frame is shorter than its header");
  }
  const size_t payload_len = frame.size() - sizeof(FrameHeader);
  FrameHeader h;
  h.seq_lo = static_cast<uint32_t>(seq);
  h.seq_hi = static_cast<uint32_t>(seq >> 32);
  h.payload_len = static_cast<uint32_t>(payload_len);
  if (h.payload_len != payload_len) {
    hzccl::detail::raise_error("seal_frame: payload exceeds the 32-bit frame length field");
  }
  h.payload_crc = payload_crc;
  h.header_crc = crc32c(leading_bytes_of<offsetof(FrameHeader, header_crc)>(h));
  std::memcpy(frame.data(), &h, sizeof(FrameHeader));
}

HZCCL_HOT void encode_frame_into(uint64_t seq, std::span<const uint8_t> payload,
                                 std::span<uint8_t> out) {
  if (out.size() != frame_size(payload.size())) {
    hzccl::detail::raise_capacity("encode_frame: output span does not match frame size");
  }
  uint8_t* const body = out.data() + sizeof(FrameHeader);
  seal_frame(seq, out, crc32c_tiles(payload, [&](size_t at, std::span<const uint8_t> tile) {
               std::memcpy(body + at, tile.data(), tile.size());
             }));
}

HZCCL_HOT FrameView decode_frame(std::span<const uint8_t> frame, std::span<uint8_t> out) {
  FrameView view;
  if (frame.size() < sizeof(FrameHeader)) return view;
  const FrameHeader h = ByteReader(frame, "frame").read<FrameHeader>("frame header");
  if (h.magic != kFrameMagic) return view;
  if (h.header_crc != crc32c(leading_bytes_of<offsetof(FrameHeader, header_crc)>(h))) {
    return view;
  }
  if (frame.size() != sizeof(FrameHeader) + h.payload_len) return view;
  const std::span<const uint8_t> payload = frame.subspan(sizeof(FrameHeader));
  const bool lands = !out.empty() && out.size() == payload.size();
  const uint32_t crc =
      lands ? crc32c_tiles(payload,
                           [&](size_t at, std::span<const uint8_t> tile) {
                             std::memcpy(out.data() + at, tile.data(), tile.size());
                           })
            : crc32c(payload);
  if (h.payload_crc != crc) return view;
  view.valid = true;
  view.landed = lands;
  view.seq = (static_cast<uint64_t>(h.seq_hi) << 32) | h.seq_lo;
  view.payload = payload;
  return view;
}

}  // namespace hzccl::simmpi
