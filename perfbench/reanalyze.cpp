// reanalyze: er_print run again and again over one dense experiment pair.
// No simulation in the timed loop: each pass loads both experiments,
// reduces them and renders every er_print -c view plus -J, one pass at a
// time. A load, fold, merge or view change moves this workload while
// paper_profile, dominated by simulation, predicts no change.
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "analyze/reports.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace dsprof;

namespace {

/// Host-probe runs (10-20 ms) before the timed loop and after each pass.
constexpr int kProbeRuns = 10;

}  // namespace

Outcome run_reanalyze(const Options& opt, Tracer& tr) {
  Outcome out;
  const auto setup = mcfsim::PaperSetup::small(opt.seed);

  // Inputs: sampling intervals far denser than the paper's (~15x the
  // events), so analysis work dominates each pass.
  const int64_t t_inputs = now_ns();
  std::array<experiment::Experiment, 2> dense =
      collect_pair(setup, {"+ecstall,1009,+ecrm,13", "+ecref,53,+dtlbm,7"}, {"hi", "off"});
  out.notes.push_back("inputs_s (dense collect pair, 2 threads) = " +
                      std::to_string(seconds_between(t_inputs, now_ns())));

  // Set-up: write both experiment directories.
  const std::string dir1 = opt.workdir + "/dense_1";
  const std::string dir2 = opt.workdir + "/dense_2";
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir2);
    ::sync();  // each repetition starts with no writeback in flight
    const int64_t t0 = now_ns();
    {
      Scope root(tr, "setup", r);
      {
        Scope s(tr, "experiment.save");
        dense[0].save(dir1);
      }
      Scope s(tr, "experiment.save");
      dense[1].save(dir2);
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
  }

  // Once: the production Radix engine and the seed's Baseline reference
  // must produce the same report.
  {
    const std::vector<const experiment::Experiment*> both = {&dense[0], &dense[1]};
    const analyze::Analysis radix(both, {0, analyze::Reduction::Engine::Radix});
    const analyze::Analysis baseline(both, {0, analyze::Reduction::Engine::Baseline});
    out.op(analyze::render_json_report(radix) == analyze::render_json_report(baseline),
           "Radix and Baseline reduction engines disagree");
  }
  dense = {};
  // Write the set-up's dirty pages back now, so the kernel's background
  // writeback does not compete with the timed passes.
  ::sync();

  std::vector<double> ns_per_event;
  std::string first_views, first_json;
  u64 events = 0, unique_callstacks = 0, bytes = 0;
  out.probe.sample(kProbeRuns);
  reset_peak_rss();
  const int64_t t_begin = now_ns();
  for (u64 k = 1; k == 1 || seconds_between(t_begin, now_ns()) < opt.seconds; ++k) {
    std::string views, json;
    const int64_t t0 = now_ns();
    {
      Scope root(tr, "reanalyze.pass", k);
      experiment::Experiment l1, l2;
      {
        Scope s(tr, "experiment.load");
        l1 = experiment::Experiment::load(dir1);
      }
      {
        Scope s(tr, "experiment.load");
        l2 = experiment::Experiment::load(dir2);
      }
      std::unique_ptr<analyze::Analysis> a;
      {
        Scope s(tr, "analyze.reduce");
        a = std::make_unique<analyze::Analysis>(
            std::vector<const experiment::Experiment*>{&l1, &l2});
        a->reduce();
      }
      {
        Scope s(tr, "analyze.render_code");
        views = render_code_views(*a);
      }
      {
        Scope s(tr, "analyze.render_addr");
        views += render_addr_views(*a);
      }
      {
        Scope s(tr, "analyze.render_json");
        json = analyze::render_json_report(*a);
      }
      events = l1.events.size() + l2.events.size();
      // Freeing the analysis and unmapping the experiments is part of the
      // pass a user waits for.
      Scope s(tr, "release");
      a.reset();
      l1 = {};
      l2 = {};
    }
    const double secs = seconds_between(t0, now_ns());
    if (k == 1) {
      first_views = views;
      first_json = json;
      bytes = dir_bytes(dir1) + dir_bytes(dir2);
    }
    out.op(views == first_views && json == first_json,
           "pass " + std::to_string(k) + " rendered different bytes than pass 1");
    out.probe.sample(kProbeRuns);
    ns_per_event.push_back(secs * 1e9 / static_cast<double>(events));
  }
  const Window w{t_begin, now_ns()};
  out.e2e["peak_rss_mb"] = peak_rss_mb();
  // Counted outside the passes: a loaded store scans for it on first use.
  for (const std::string& dir : {dir1, dir2}) {
    unique_callstacks += experiment::Experiment::load(dir).events.unique_callstacks();
  }
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);

  out.e2e["setup_s"] = median(setup_s);
  out.e2e["op_ns_per_item_p50"] = quantile(ns_per_event, 0.5);

  auto& L = out.layer;
  L["analyze.events"] = static_cast<double>(events);
  L["analyze.unique_callstacks"] = static_cast<double>(unique_callstacks);
  L["experiment.bytes"] = static_cast<double>(bytes);
  if (tr.enabled()) {
    fill_offline_layers(tr.spans(), w, "reanalyze.pass", static_cast<double>(events),
                        static_cast<double>(bytes), L);
  }
  out.notes.push_back("passes = " + std::to_string(ns_per_event.size()));
  return out;
}

}  // namespace perfbench
