// Shared pieces of the end-to-end benchmark: run options, the outcome a
// workload returns, and the helpers that turn recorded spans into per-layer
// metrics. README.md in this directory defines every metric.
#pragma once

#include <time.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"
#include "mcfsim/experiments.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 25;
  bool trace = false;
  std::string workdir;    // scratch space for saved experiments
  std::string trace_out;  // chrome://tracing file (traced runs only)
  std::string git_sha = "unknown";
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// Host-speed probe: a fixed kernel (a small cache simulator, see
/// bench.cpp), frozen here and independent of src/, run on the thread that
/// times the workload, in between or during its operations. The shared
/// hosts this benchmark runs on change speed by ~20% within a second and by
/// up to 2x over minutes, mostly through other tenants' cache traffic; the
/// kernel slows with them, and the program's code cannot move it. main()
/// reports the end-to-end times at the reference host speed: measured time
/// x scale().
class HostProbe {
 public:
  /// Runs recorded at most; storage is reserved up front, so sample() never
  /// allocates and a signal handler may call it (ProbeTimer).
  static constexpr size_t kMaxRuns = size_t{1} << 16;
  /// Reported times are those of a host where one kernel run takes this.
  static constexpr double kReferenceNs = 1.0e6;

  HostProbe();

  /// Run the kernel `runs` times on the calling thread, timing each run.
  void sample(int runs);
  /// Median wall time of one kernel run, in ns, over every run so far.
  double median_ns() const;
  /// kReferenceNs / median_ns(), or 1 before any run.
  double scale() const;
  /// Wall time spent in kernel runs so far, in ns.
  int64_t busy_ns() const;

 private:
  uint64_t kernel();

  std::vector<uint32_t> mem_;  // the modelled memory
  std::vector<uint64_t> l1_;   // line tags, set-major, most recent first
  std::vector<uint64_t> l2_;
  uint64_t sink_ = 0;          // keeps the kernel's result live
  int64_t busy_ns_ = 0;
  std::vector<double> ns_;
};

/// While in scope, runs `probe` once every `period_ns` from a timer signal
/// delivered to the constructing thread, so the probe shares that thread's
/// core during one long call that cannot be split (a whole collect run).
/// Only for calls that make no system call a signal could interrupt, and
/// one ProbeTimer at a time.
class ProbeTimer {
 public:
  ProbeTimer(HostProbe& probe, int64_t period_ns);
  ~ProbeTimer();
  ProbeTimer(const ProbeTimer&) = delete;
  ProbeTimer& operator=(const ProbeTimer&) = delete;

 private:
  timer_t timer_{};
};

/// What a workload hands back to main(). `e2e` holds every end-to-end
/// metric; `layer` holds the per-layer metrics this workload exercises in
/// its timed phase (main() reports the rest as 0).
struct Outcome {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // extra human-readable lines
  HostProbe probe;                  // sampled by the workload's timing thread

  /// Count one operation; a failed one also prints why on stderr.
  void op(bool ok, const std::string& what);
};

Outcome run_paper_profile(const Options& opt, Tracer& tr);
Outcome run_reanalyze(const Options& opt, Tracer& tr);
Outcome run_fleet_stream(const Options& opt, Tracer& tr);

// --- helpers -----------------------------------------------------------------

double seconds_between(int64_t t0_ns, int64_t t1_ns);

/// Quantile by linear interpolation between order statistics (numpy's
/// default); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Return freed heap to the OS and restart the kernel's peak-RSS count, so
/// peak_rss_mb() covers the timed phase and not the inputs or set-up.
void reset_peak_rss();
/// Peak resident set size since the last reset_peak_rss().
double peak_rss_mb();

/// Total size of the regular files directly inside `dir`.
uint64_t dir_bytes(const std::string& dir);

/// Every er_print -c view over `a`, split the way the per-layer metrics
/// split rendering: code and data views, and the address views.
std::string render_code_views(const dsprof::analyze::Analysis& a);
std::string render_addr_views(const dsprof::analyze::Analysis& a);

/// Spans that start inside the timed phase [begin_ns, end_ns].
struct Window {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  bool contains(const Span& s) const { return s.start_ns >= begin_ns && s.start_ns <= end_ns; }
};

/// Durations (in `unit_ns` units) of every span named `name` in `w`.
std::vector<double> span_durations(const std::vector<Span>& spans, const char* name, Window w,
                                   double unit_ns);

/// For every root span named `root` in `w`: the summed duration (in
/// `unit_ns` units) of its descendants named `layer`.
std::vector<double> per_root_sums(const std::vector<Span>& spans, const char* root,
                                  const char* layer, Window w, double unit_ns);

/// Total duration in seconds of every span named `name` in `w`.
double total_seconds(const std::vector<Span>& spans, const char* name, Window w);

/// The experiment.* and analyze.* timings shared by the offline workloads:
/// per-root medians of save, load, reduce and render, and the load and
/// reduce rates given each root's bytes loaded and events analyzed.
void fill_offline_layers(const std::vector<Span>& spans, Window w, const char* root,
                         double events_per_root, double bytes_per_root,
                         std::map<std::string, double>& layer);

/// Simulated instructions per collect run of every workload.
/// MCF instances differ in length by seed (80M-135M instructions for
/// mcf-small); stopping every run at the same point keeps the analyzed and
/// retained data the same size whatever the seed, so runs with different
/// seeds compare.
inline constexpr uint64_t kInputInstructions = 80'000'000;

/// One collect run of the MCF program on the calling thread, stopped after
/// kInputInstructions: `hw` / `clock` are the collect -h and -p arguments.
dsprof::experiment::Experiment collect_run(const dsprof::sym::Image& image,
                                           const dsprof::mcfsim::PaperSetup& setup,
                                           const char* hw, const char* clock);

/// Collect two runs of the MCF program concurrently, one thread each, each
/// stopped after kInputInstructions: `hw[i]` / `clock[i]` are the collect
/// -h and -p arguments of run i.
std::array<dsprof::experiment::Experiment, 2> collect_pair(
    const dsprof::mcfsim::PaperSetup& setup, const std::array<const char*, 2>& hw,
    const std::array<const char*, 2>& clock);

}  // namespace perfbench
