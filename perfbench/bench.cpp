#include "bench.hpp"

#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "analyze/reports.hpp"

namespace perfbench {

using namespace dsprof;

void Outcome::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

namespace {

// The probe kernel: a two-level set-associative cache model (64 x 8 and
// 1024 x 8 lines, LRU) driven by an address stream with locality over a
// 1 MiB memory that it also updates: a miniature of what the simulator
// does on every load and store. 1.1-2.1 ms per run on the 4-vCPU Xeon
// hosts behind README.md's figures, depending on their load.
constexpr size_t kProbeMemWords = size_t{1} << 18;
constexpr int kProbeAccesses = 50'000;
constexpr size_t kProbeWays = 8;
constexpr size_t kProbeL1Sets = 64;
constexpr size_t kProbeL2Sets = 1024;

/// Look `line` up in one set; on a miss, insert it as most recent.
bool probe_touch(uint64_t* set, uint64_t line) {
  for (size_t w = 0; w < kProbeWays; ++w) {
    if (set[w] == line) return true;
  }
  std::copy_backward(set, set + kProbeWays - 1, set + kProbeWays);
  set[0] = line;
  return false;
}

/// The probe a ProbeTimer feeds; null while none is armed.
std::atomic<HostProbe*> g_timer_probe{nullptr};
static_assert(std::atomic<HostProbe*>::is_always_lock_free, "read in a signal handler");

void on_probe_timer(int) {
  const int saved_errno = errno;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (HostProbe* p = g_timer_probe.load(std::memory_order_relaxed)) p->sample(1);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  errno = saved_errno;
}

}  // namespace

HostProbe::HostProbe()
    : mem_(kProbeMemWords, 1), l1_(kProbeL1Sets * kProbeWays), l2_(kProbeL2Sets * kProbeWays) {
  ns_.reserve(kMaxRuns);
}

uint64_t HostProbe::kernel() {
  uint64_t x = 0x9E3779B97F4A7C15ull, addr = 0, hits = 0;
  for (int i = 0; i < kProbeAccesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // One access in four jumps anywhere; the rest stride a little forward.
    addr = ((x & 3) == 0 ? x >> 8 : addr + ((x >> 4) & 15)) & (kProbeMemWords - 1);
    const uint64_t line = addr >> 4;
    if (probe_touch(&l1_[(line % kProbeL1Sets) * kProbeWays], line)) {
      ++hits;
    } else {
      (void)probe_touch(&l2_[(line % kProbeL2Sets) * kProbeWays], line);
    }
    mem_[addr] += static_cast<uint32_t>(hits);
  }
  return hits + mem_[addr];
}

void HostProbe::sample(int runs) {
  for (int i = 0; i < runs && ns_.size() < kMaxRuns; ++i) {
    const int64_t t0 = now_ns();
    sink_ += kernel();
    const int64_t ns = now_ns() - t0;
    busy_ns_ += ns;
    ns_.push_back(static_cast<double>(ns));
  }
}

int64_t HostProbe::busy_ns() const {
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return busy_ns_;
}

ProbeTimer::ProbeTimer(HostProbe& probe, int64_t period_ns) {
  g_timer_probe.store(&probe, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  // The handler stays installed; with no probe armed it does nothing.
  struct sigaction sa {};
  sa.sa_handler = on_probe_timer;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = gettid();  // sigev_notify_thread_id, absent from older glibc
  itimerspec period{};
  period.it_interval.tv_sec = period_ns / 1'000'000'000;
  period.it_interval.tv_nsec = period_ns % 1'000'000'000;
  period.it_value = period.it_interval;
  if (sigaction(SIGALRM, &sa, nullptr) != 0 ||
      timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    g_timer_probe.store(nullptr, std::memory_order_relaxed);
    throw std::runtime_error(std::string("probe timer: ") + std::strerror(errno));
  }
  if (timer_settime(timer_, 0, &period, nullptr) != 0) {
    const int err = errno;
    timer_delete(timer_);
    g_timer_probe.store(nullptr, std::memory_order_relaxed);
    throw std::runtime_error(std::string("probe timer: ") + std::strerror(err));
  }
}

ProbeTimer::~ProbeTimer() {
  // Deleting the timer also drops a signal of it still pending.
  timer_delete(timer_);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_timer_probe.store(nullptr, std::memory_order_relaxed);
}

double HostProbe::median_ns() const { return median(ns_); }

double HostProbe::scale() const {
  const double m = median_ns();
  return m > 0 ? kReferenceNs / m : 1.0;
}

double seconds_between(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

std::string render_code_views(const analyze::Analysis& a) {
  const auto stall = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  std::string out = analyze::render_overview(a);
  out += analyze::render_function_list(a);
  out += analyze::render_callers_callees(a, "refresh_potential");
  out += analyze::render_annotated_source(a, "refresh_potential");
  out += analyze::render_annotated_disassembly(a, "refresh_potential");
  out += analyze::render_hot_pcs(a, stall, 20);
  out += analyze::render_data_objects(a, stall);
  out += analyze::render_member_expansion(a, "node");
  out += analyze::render_effectiveness(a);
  return out;
}

std::string render_addr_views(const analyze::Analysis& a) {
  const auto stall = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  std::string out = analyze::render_segments(a);
  out += analyze::render_pages(a, stall, 10);
  out += analyze::render_cache_lines(a, stall, 10);
  out += analyze::render_instances(a, stall, 10);
  return out;
}

std::vector<double> span_durations(const std::vector<Span>& spans, const char* name, Window w,
                                   double unit_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (w.contains(s) && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.duration_ns()) / unit_ns);
    }
  }
  return out;
}

std::vector<double> per_root_sums(const std::vector<Span>& spans, const char* root,
                                  const char* layer, Window w, double unit_ns) {
  // Root index of every span, by walking parents (parents precede children).
  std::vector<int32_t> root_of(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    root_of[i] = p < 0 ? static_cast<int32_t>(i) : root_of[static_cast<size_t>(p)];
  }
  std::map<int32_t, int64_t> sums;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && w.contains(spans[i]) && std::strcmp(spans[i].name, root) == 0) {
      sums[static_cast<int32_t>(i)] = 0;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto it = sums.find(root_of[i]);
    if (it != sums.end() && spans[i].parent >= 0 && std::strcmp(spans[i].name, layer) == 0) {
      it->second += spans[i].duration_ns();
    }
  }
  std::vector<double> out;
  for (const auto& [idx, ns] : sums) out.push_back(static_cast<double>(ns) / unit_ns);
  return out;
}

double total_seconds(const std::vector<Span>& spans, const char* name, Window w) {
  double total = 0;
  for (const double d : span_durations(spans, name, w, 1e9)) total += d;
  return total;
}

void fill_offline_layers(const std::vector<Span>& spans, Window w, const char* root,
                         double events_per_root, double bytes_per_root,
                         std::map<std::string, double>& layer) {
  const std::vector<double> load = per_root_sums(spans, root, "experiment.load", w, 1e6);
  const std::vector<double> reduce = per_root_sums(spans, root, "analyze.reduce", w, 1e6);
  const std::vector<double> code = per_root_sums(spans, root, "analyze.render_code", w, 1e6);
  const std::vector<double> addr = per_root_sums(spans, root, "analyze.render_addr", w, 1e6);
  const std::vector<double> json = per_root_sums(spans, root, "analyze.render_json", w, 1e6);
  std::vector<double> render(code.size());
  for (size_t i = 0; i < render.size(); ++i) render[i] = code[i] + addr[i] + json[i];
  double load_ms = 0, reduce_ms = 0;
  for (size_t i = 0; i < load.size(); ++i) {
    load_ms += load[i];
    reduce_ms += reduce[i];
  }
  const auto roots = static_cast<double>(load.size());
  layer["experiment.save_ms_p50"] = median(per_root_sums(spans, root, "experiment.save", w, 1e6));
  layer["experiment.load_ms_p50"] = median(load);
  layer["experiment.load_mb_per_s"] = load_ms > 0 ? bytes_per_root * roots / load_ms / 1e3 : 0;
  layer["analyze.reduce_ms_p50"] = median(reduce);
  layer["analyze.reduce_mev_per_s"] =
      reduce_ms > 0 ? events_per_root * roots / reduce_ms / 1e3 : 0;
  layer["analyze.render_ms_p50"] = median(render);
  layer["analyze.render_code_ms_p50"] = median(code);
  layer["analyze.render_addr_ms_p50"] = median(addr);
  layer["analyze.render_json_ms_p50"] = median(json);
}

experiment::Experiment collect_run(const sym::Image& image, const mcfsim::PaperSetup& setup,
                                   const char* hw, const char* clock) {
  collect::CollectOptions o;
  o.hw = hw;
  o.clock = clock;
  o.cpu = setup.cpu;
  o.max_instructions = kInputInstructions;
  collect::Collector c(image, o);
  return c.run([&](machine::Cpu& cpu) { mcfsim::write_input(cpu.memory(), setup.run); });
}

std::array<experiment::Experiment, 2> collect_pair(const mcfsim::PaperSetup& setup,
                                                   const std::array<const char*, 2>& hw,
                                                   const std::array<const char*, 2>& clock) {
  const sym::Image image = mcfsim::build_mcf_image(setup.build);
  std::array<experiment::Experiment, 2> out;
  std::array<std::exception_ptr, 2> err;
  auto collect_one = [&](size_t i) {
    try {
      out[i] = collect_run(image, setup, hw[i], clock[i]);
    } catch (...) {
      err[i] = std::current_exception();
    }
  };
  std::thread second(collect_one, 1);
  collect_one(0);
  second.join();
  for (const auto& e : err) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

}  // namespace perfbench
