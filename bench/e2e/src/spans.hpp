// The benchmark's own span recorder: host steady-clock spans stamped around
// calls into the library's public functions (no spans inside the library).
// Spans live in memory and are written once, as Chrome-trace JSON, when the
// run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One host-time span.  `parent` indexes the recorder's span list (-1 for a
/// root); every span of one op carries that op's id; `tid` 0 is the main
/// thread and r + 1 is simulated rank r.
struct Span {
  const char* name = "";
  Clock::time_point t0;
  Clock::time_point t1;
  int32_t parent = -1;
  uint32_t op = 0;
  int32_t tid = 0;
};

class SpanRecorder {
 public:
  /// Keeps at most `capacity` spans; later ones are counted, not stored, so
  /// a long traced pass cannot grow memory without bound.
  explicit SpanRecorder(size_t capacity = 50000) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Records a finished span; returns its index, or -1 once full.
  int32_t add(const char* name, Clock::time_point t0, Clock::time_point t1, int32_t parent,
              uint32_t op, int32_t tid = 0) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, t0, t1, parent, op, tid});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Writes the spans as Chrome-trace "complete" events (Perfetto and
  /// chrome://tracing load it).  Returns false if the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const Clock::time_point base = spans_.empty() ? Clock::now() : spans_.front().t0;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%llu},"
                    "\"traceEvents\":[",
                 static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = std::chrono::duration<double, std::micro>(s.t0 - base).count();
      const double dur = std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
      const char* parent = s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name : "";
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"op\":%u,\"parent\":%d,\"parent_name\":\"%s\"}}",
                   i == 0 ? "" : ",", s.name, s.tid, ts, dur, s.op, s.parent, parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace e2e
