// Span recorder for the benchmark's traced runs (--trace 1).
//
// Spans are recorded in the benchmark's own code around each call into a
// dsprof layer; nothing inside src/ is instrumented. Each span carries its
// name, start, end, parent and a group id shared by every span of one
// profile, er_print pass or streamed session. Spans stay in memory and are
// written as chrome://tracing JSON when the run ends.
//
// A disabled Tracer records nothing: Scope then costs one branch, so the
// untraced run executes the same calls in the same order.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string: one of the layer names
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  uint64_t group = 0;   // profile / pass / session id
  uint32_t tid = 0;     // small per-thread id, for the chrome trace rows

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(now_ns()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span on the calling thread. It nests under the thread's
  /// innermost open span; a root takes `group`, a child inherits its
  /// parent's. Returns -1 when disabled.
  int32_t open(const char* name, uint64_t group);
  void close(int32_t index);

  /// Copy of every recorded span (all closed once the workload returns).
  std::vector<Span> spans() const;

  /// Write the spans as chrome://tracing JSON, with each span's self time
  /// and group in its args. Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  const bool enabled_;
  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, uint64_t group = 0)
      : t_(t), index_(t.enabled() ? t.open(name, group) : -1) {}
  ~Scope() {
    if (index_ >= 0) t_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<int64_t> self_times(const std::vector<Span>& spans);

/// Covered share of the root spans of each name: the union of every root's
/// direct children's intervals, clipped to the root, summed over the roots
/// of that name and divided by their summed duration. Summing over roots
/// keeps one preempted root from failing the check; a layer call that
/// lost its span lowers every root of its kind.
std::map<std::string, double> root_coverage(const std::vector<Span>& spans);

/// Check self_times and root_coverage on a fixed span set with known
/// answers. Returns an empty string on success, else what went wrong.
std::string self_test();

}  // namespace perfbench
