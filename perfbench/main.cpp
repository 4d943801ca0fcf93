// perfbench: the dsprof end-to-end benchmark binary (run it through
// perfbench/run.py, which builds it first).
//
//   perfbench --workload paper_profile|reanalyze|fleet_stream [--seed N]
//             [--seconds S] [--trace 0|1] [--workdir DIR] [--trace-out FILE]
//             [--git-sha SHA]
//
// Prints the host block, every metric by name with its unit, and as the
// last stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 records
// spans around every layer call and reports the per-layer metrics instead.
// Exits 1 when any check fails.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
    {"op_ns_per_item_p50", "ns"},
};

constexpr MetricDef kPerLayer[] = {
    {"mcfsim.build_ms", "ms"},
    {"collect.run_s", "s"},
    {"collect.sim_minstr_per_s", "Minstr/s"},
    {"collect.events", "count"},
    {"collect.ea_known_frac", "frac"},
    {"machine.instructions", "count"},
    {"machine.cycles", "count"},
    {"experiment.save_ms_p50", "ms"},
    {"experiment.load_ms_p50", "ms"},
    {"experiment.bytes", "bytes"},
    {"experiment.load_mb_per_s", "MB/s"},
    {"analyze.reduce_ms_p50", "ms"},
    {"analyze.reduce_mev_per_s", "Mevents/s"},
    {"analyze.render_ms_p50", "ms"},
    {"analyze.render_code_ms_p50", "ms"},
    {"analyze.render_addr_ms_p50", "ms"},
    {"analyze.render_json_ms_p50", "ms"},
    {"analyze.events", "count"},
    {"analyze.unique_callstacks", "count"},
    {"serve.session_ms_p50", "ms"},
    {"serve.session_ms_p90", "ms"},
    {"serve.send_batch_us_p50", "us"},
    {"serve.send_batch_us_p90", "us"},
    {"serve.fold_ns_per_event", "ns"},
    {"serve.flush_ms_p50", "ms"},
    {"serve.flush_ms_p90", "ms"},
    {"serve.max_queue_depth", "count"},
    {"serve.snapshot_ms_p50", "ms"},
    {"serve.snapshot_ms_p90", "ms"},
    {"serve.monitor_lag_ms_p90", "ms"},
    {"serve.sessions_retained", "count"},
    {"serve.retained_events", "count"},
    {"serve.events_dropped", "count"},
    {"trace.min_root_coverage", "frac"},
    {"host.probe_ms", "ms"},
};

/// The children of each kind of root span must cover at least this share
/// of it, or a layer has dropped out of the breakdown.
constexpr double kMinRootCoverage = 0.95;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Print each metric as a table row and return them as the members of the
/// result's "metrics" object. Metrics the workload did not set read 0.
template <size_t N>
std::string print_metrics(const MetricDef (&defs)[N], const std::map<std::string, double>& values) {
  std::string json;
  for (const MetricDef& m : defs) {
    const auto it = values.find(m.name);
    const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::printf("  %-28s %16.6g %s\n", m.name, v, m.unit);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  json.empty() ? "" : ",", m.name, v, m.unit);
    json += buf;
  }
  return json;
}

int usage() {
  std::fputs(
      "usage: perfbench --workload paper_profile|reanalyze|fleet_stream [--seed N]\n"
      "                 [--seconds S] [--trace 0|1] [--workdir DIR] [--trace-out FILE]\n"
      "                 [--git-sha SHA]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.workdir = "perfbench_work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--workdir") opt.workdir = v;
    else if (k == "--trace-out") opt.trace_out = v;
    else if (k == "--git-sha") opt.git_sha = v;
    else return usage();
  }
  if (argc % 2 == 0) return usage();

  const auto nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("host: nproc=%ld cpu=\"%s\" compiler=\"%s\" build_type=%s git=%s\n", nproc,
              cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              opt.git_sha.c_str());
  std::printf("{\"host\":{\"nproc\":%ld,\"cpu\":\"%s\",\"compiler\":\"%s\","
              "\"build_type\":\"%s\",\"git_sha\":\"%s\"}}\n",
              nproc, json_escape(cpu_model()).c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              json_escape(opt.git_sha).c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);

  Tracer tracer(opt.trace);
  Outcome out;
  if (opt.trace) {
    const std::string err = self_test();
    if (!err.empty()) {
      std::fprintf(stderr, "perfbench: span self-test failed: %s\n", err.c_str());
      return 1;
    }
  }
  std::filesystem::create_directories(opt.workdir);
  try {
    if (opt.workload == "paper_profile") out = run_paper_profile(opt, tracer);
    else if (opt.workload == "reanalyze") out = run_reanalyze(opt, tracer);
    else if (opt.workload == "fleet_stream") out = run_fleet_stream(opt, tracer);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  out.e2e["ok_frac"] =
      out.attempted == 0 ? 0 : 1.0 - static_cast<double>(out.failed) / out.attempted;
  // End-to-end times at the reference host speed (HostProbe in bench.hpp);
  // the figures as measured are printed too.
  const double scale = out.probe.scale();
  out.notes.push_back("as measured: setup_s = " + std::to_string(out.e2e["setup_s"]) +
                      ", op_ns_per_item_p50 = " + std::to_string(out.e2e["op_ns_per_item_p50"]) +
                      "; host probe " + std::to_string(out.probe.median_ns() / 1e6) +
                      " ms, scale " + std::to_string(scale));
  out.e2e["setup_s"] *= scale;
  out.e2e["op_ns_per_item_p50"] *= scale;
  out.layer["host.probe_ms"] = out.probe.median_ns() / 1e6;

  if (opt.trace) {
    // Every root span's children must account for its time.
    const std::vector<Span> spans = tracer.spans();
    double min_cov = 1;
    for (const auto& [name, covered] : root_coverage(spans)) {
      min_cov = std::min(min_cov, covered);
      out.op(covered >= kMinRootCoverage, "children cover " + std::to_string(covered) +
                                              " of the " + name + " spans");
    }
    out.layer["trace.min_root_coverage"] = min_cov;
    if (!opt.trace_out.empty()) {
      if (tracer.write_chrome_trace(opt.trace_out)) {
        std::printf("trace: %zu spans written to %s\n", spans.size(), opt.trace_out.c_str());
      } else {
        out.op(false, "cannot write " + opt.trace_out);
      }
    }
  }

  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  // Both sets are printed; the result line carries the set of this mode
  // (end-to-end figures of a traced run include the tracing overhead).
  std::puts(opt.trace ? "end-to-end metrics (traced run):" : "end-to-end metrics:");
  std::string metrics = print_metrics(kEndToEnd, out.e2e);
  if (opt.trace) {
    std::puts("per-layer metrics:");
    metrics = print_metrics(kPerLayer, out.layer);
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              out.failed == 0 ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return out.failed == 0 ? 0 : 1;
}
