// SimSpatial perfbench — in-memory span recorder for the traced run.
//
// A span brackets one public library call made by the benchmark (or the
// whole timed step/window that contains them). Spans live in a vector
// while the run executes and are written out only when it ends, so the
// timed region pays one steady_clock read per boundary and nothing else.
// Self time is a span's duration minus what its child spans cover.

#ifndef SIMSPATIAL_PERFBENCH_TRACE_H_
#define SIMSPATIAL_PERFBENCH_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simspatial::perfbench {

inline std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), for the cpu-per-wall ratios.
inline std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Process CPU time over the span; -1 when not sampled.
  std::int64_t cpu_ns = -1;
  /// Index of the enclosing span in Tracer::spans(), -1 for a root.
  std::int32_t parent = -1;
  /// Step or window id shared by a root span and all its children.
  std::uint32_t unit = 0;
  /// Filled by Tracer::ComputeSelfTimes().
  std::int64_t self_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Spans are recorded only while enabled; a disabled tracer costs one
  /// branch per boundary.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Pre-size the span store so no reallocation lands inside a timed
  /// region.
  void Reserve(std::size_t spans) { spans_.reserve(spans); }

  /// RAII span: opens on construction under the innermost open span,
  /// closes on destruction. `cpu` also samples process CPU time.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint32_t unit,
          bool cpu = false)
        : tracer_(tracer->enabled() ? tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, unit, cpu);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// self_ns = duration minus the union of the direct children's
  /// intervals (children of one span never overlap here: every call is
  /// made from the benchmark's single driving thread).
  void ComputeSelfTimes() {
    for (Span& s : spans_) s.self_ns = s.duration_ns();
    for (const Span& s : spans_) {
      if (s.parent >= 0) spans_[s.parent].self_ns -= s.duration_ns();
    }
  }

 private:
  std::int32_t Open(const char* name, std::uint32_t unit, bool cpu) {
    Span s;
    s.name = name;
    s.unit = unit;
    s.parent = open_.empty() ? -1 : open_.back();
    s.cpu_ns = cpu ? CpuNs() : -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    open_.push_back(index);
    s.start_ns = WallNs();
    spans_.push_back(s);
    return index;
  }
  void Close(std::int32_t index) {
    Span& s = spans_[index];
    s.end_ns = WallNs();
    if (s.cpu_ns >= 0) s.cpu_ns = CpuNs() - s.cpu_ns;
    open_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace simspatial::perfbench

#endif  // SIMSPATIAL_PERFBENCH_TRACE_H_
