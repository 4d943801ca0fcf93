#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

// The calling thread's open spans, innermost last. One Tracer exists per
// process, so a plain thread_local stack is enough.
thread_local std::vector<int32_t> t_open;

uint32_t thread_id() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
int64_t covered_ns(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (a >= b) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> out(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) out[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  return out;
}

}  // namespace

int32_t Tracer::open(const char* name, uint64_t group) {
  Span s;
  s.name = name;
  s.tid = thread_id();
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (!t_open.empty()) {
    s.parent = t_open.back();
    s.group = spans_[static_cast<size_t>(s.parent)].group;
  } else {
    s.group = group;
  }
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  t_open.push_back(index);
  return index;
}

void Tracer::close(int32_t index) {
  const int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = self_times(all);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"group\":%llu,\"parent\":%d,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name, s.tid, (s.start_ns - origin_ns_) / 1e3,
                  s.duration_ns() / 1e3, static_cast<unsigned long long>(s.group), s.parent,
                  self[i] / 1e3);
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  const auto children = child_intervals(spans);
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              covered_ns(children[i], spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

std::map<std::string, double> root_coverage(const std::vector<Span>& spans) {
  const auto children = child_intervals(spans);
  std::map<std::string, std::pair<int64_t, int64_t>> sums;  // name -> (covered, duration)
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) continue;
    auto& [cov, dur] = sums[s.name];
    cov += covered_ns(children[i], s.start_ns, s.end_ns);
    dur += s.duration_ns();
  }
  std::map<std::string, double> out;
  for (const auto& [name, cd] : sums) {
    out[name] = cd.second > 0 ? static_cast<double>(cd.first) / cd.second : 0.0;
  }
  return out;
}

std::string self_test() {
  // root [0,100) with children [10,30), [20,50) (overlapping) and [90,120)
  // (overhanging the root's end); the grandchild [12,14) must not count
  // toward the root. Covered: [10,50) + [90,100) = 50.
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 1, 1};
  spans[1] = {"a", 10, 30, 0, 1, 1};
  spans[2] = {"b", 20, 50, 0, 1, 1};
  spans[3] = {"c", 90, 120, 0, 1, 1};
  spans[4] = {"a.child", 12, 14, 1, 1, 1};
  const std::vector<int64_t> self = self_times(spans);
  if (self[0] != 50) return "root self time " + std::to_string(self[0]) + " != 50";
  if (self[1] != 18) return "child self time " + std::to_string(self[1]) + " != 18";
  if (self[4] != 2) return "leaf self time " + std::to_string(self[4]) + " != 2";
  // A second, fully covered root of the same name: (50 + 100) / (100 + 100).
  spans.push_back({"root", 200, 300, -1, 2, 1});
  spans.push_back({"b", 200, 300, 5, 2, 1});
  const std::map<std::string, double> cov = root_coverage(spans);
  if (cov.size() != 1 || cov.at("root") != 0.75) return "root coverage != 0.75";
  return "";
}

}  // namespace perfbench
