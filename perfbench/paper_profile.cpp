// paper_profile: the offline user path on mcf-small, one profile at a time.
// Compile, run both §3.1 collect command lines, save both experiments,
// reload them, and render FIG1-FIG7 plus the -J report. Simulation is
// nearly all of the time, so this is the workload a simulator change moves.
// Each collect run stops after kInputInstructions, as in the other
// workloads, so that every seed simulates and analyzes the same amount.
#include <filesystem>
#include <memory>

#include "analyze/reports.hpp"
#include "bench.hpp"
#include "mcfsim/experiments.hpp"
#include "pinned.hpp"

namespace perfbench {

using namespace dsprof;

namespace {

/// The host probe runs every 50 ms during each collect call (~2% of it).
constexpr int64_t kProbePeriodNs = 50'000'000;

/// Simulated counts of one profile (both collect runs). They repeat
/// exactly for a seed; for the default seed they equal pinned.hpp.
struct ProfileCounts {
  u64 instructions = 0;
  u64 cycles = 0;
  u64 events = 0;
  u64 ea_requested = 0;  // HW events whose counter asked for backtracking
  u64 ea_known = 0;      // ... and whose effective address was recovered
  std::map<std::string, u64> per_counter;  // "clock" or the counter's short name

  bool operator==(const ProfileCounts&) const = default;
};

ProfileCounts count(const mcfsim::PaperExperiments& px) {
  ProfileCounts c;
  for (const experiment::Experiment* ex : {&px.ex1, &px.ex2}) {
    c.instructions += ex->total_instructions;
    c.cycles += ex->total_cycles;
    c.events += ex->events.size();
    std::array<bool, machine::kNumHwEvents> backtrack{};
    for (const auto& spec : ex->counters) {
      backtrack[static_cast<size_t>(spec.event)] = spec.backtrack;
    }
    const auto pic = ex->events.pic_col();
    const auto event = ex->events.event_col();
    const auto flags = ex->events.flags_col();
    for (size_t i = 0; i < ex->events.size(); ++i) {
      if (pic[i] == machine::kClockPic) {
        ++c.per_counter["clock"];
        continue;
      }
      ++c.per_counter[analyze::metric_short_name(event[i])];
      if (backtrack[event[i]]) {
        ++c.ea_requested;
        if ((flags[i] & experiment::EventStore::kHasEa) != 0) ++c.ea_known;
      }
    }
  }
  return c;
}

ProfileCounts pinned_counts() {
  ProfileCounts c;
  c.instructions = pinned::kInstructions;
  c.cycles = pinned::kCycles;
  c.events = pinned::kEvents;
  c.ea_requested = pinned::kEaRequested;
  c.ea_known = pinned::kEaKnown;
  for (const auto& [name, n] : pinned::kPerCounter) c.per_counter[name] = n;
  return c;
}

/// mcfsim::collect_paper_experiments: the paper's two collect command lines,
/// one after the other on the calling thread, each stopped after
/// kInputInstructions. Full runs simulate 80M-135M instructions depending
/// on the seed, and the profile's memory grew and shrank with them.
mcfsim::PaperExperiments collect_paper(const mcfsim::PaperSetup& setup) {
  const sym::Image image = mcfsim::build_mcf_image(setup.build);
  mcfsim::PaperExperiments px;
  px.ex1 = collect_run(image, setup, "+ecstall,20011,+ecrm,211", "hi");
  px.ex2 = collect_run(image, setup, "+ecref,997,+dtlbm,101", "off");
  return px;
}

/// FIG1-FIG7 as in examples/mcf_profile and the bench/fig* targets.
std::string render_figures(const analyze::Analysis& a) {
  const auto stall = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  const auto ecrm = static_cast<size_t>(machine::HwEvent::EC_rd_miss);
  std::string out = analyze::render_overview(a);
  out += analyze::render_function_list(a);
  out += analyze::render_annotated_source(a, "refresh_potential");
  out += analyze::render_annotated_disassembly(a, "refresh_potential");
  out += analyze::render_hot_pcs(a, ecrm, 17);
  out += analyze::render_data_objects(a, stall);
  out += analyze::render_member_expansion(a, "node");
  return out;
}

}  // namespace

Outcome run_paper_profile(const Options& opt, Tracer& tr) {
  Outcome out;
  const auto setup = mcfsim::PaperSetup::small(opt.seed);

  // Set-up: compile the program and load it with its input into a fresh
  // simulated memory, the state a collect run starts from.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const int64_t t0 = now_ns();
    {
      Scope root(tr, "setup", r);
      sym::Image image;
      {
        Scope s(tr, "mcfsim.build");
        image = mcfsim::build_mcf_image(setup.build);
      }
      Scope s(tr, "mcfsim.load_input");
      mem::Memory m;
      image.load_into(m);
      mcfsim::write_input(m, setup.run);
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
  }

  std::vector<double> ns_per_instr, rss_mb;
  double instr_total = 0;
  std::unique_ptr<ProfileCounts> first_counts;
  std::string first_figures;
  u64 bytes = 0, analyzed_events = 0, unique_callstacks = 0;
  const int64_t t_begin = now_ns();
  for (u64 k = 1; k == 1 || seconds_between(t_begin, now_ns()) < opt.seconds; ++k) {
    const std::string dir1 = opt.workdir + "/profile" + std::to_string(k) + "_1";
    const std::string dir2 = opt.workdir + "/profile" + std::to_string(k) + "_2";
    mcfsim::PaperExperiments px;
    std::string figures, json;
    // Peak RSS per profile: a user's collect and er_print run in a fresh
    // process each, and the heap a long run accumulates would otherwise
    // make it grow with the number of profiles the host speed allows.
    reset_peak_rss();
    const int64_t probe0 = out.probe.busy_ns();
    const int64_t t0 = now_ns();
    {
      Scope root(tr, "profile", k);
      {
        // The user's compile step; collect_paper compiles the same image
        // again internally, as collect_paper_experiments does, and that
        // copy is what it runs.
        Scope s(tr, "mcfsim.build");
        (void)mcfsim::build_mcf_image(setup.build);
      }
      {
        Scope s(tr, "collect.run");
        const ProbeTimer timer(out.probe, kProbePeriodNs);
        px = collect_paper(setup);
      }
      {
        Scope s(tr, "experiment.save");
        px.ex1.save(dir1);
      }
      {
        Scope s(tr, "experiment.save");
        px.ex2.save(dir2);
      }
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
        figures = render_figures(*a);
      }
      {
        Scope s(tr, "analyze.render_json");
        json = analyze::render_json_report(*a);
      }
      analyzed_events = l1.events.size() + l2.events.size();
      // Freeing the analysis and unmapping the experiments is part of the
      // pass a user waits for.
      Scope s(tr, "release");
      a.reset();
      l1 = {};
      l2 = {};
    }
    // The profile's time, less the probe runs inside it.
    const double secs = seconds_between(t0 + (out.probe.busy_ns() - probe0), now_ns());
    rss_mb.push_back(peak_rss_mb());
    bytes = dir_bytes(dir1) + dir_bytes(dir2);
    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir2);

    // Checks (untimed): the reloaded experiments report exactly what the
    // in-memory ones do, and the simulated counts repeat bit for bit.
    const analyze::Analysis in_memory({&px.ex1, &px.ex2});
    bool ok = analyze::render_json_report(in_memory) == json;
    if (!ok) std::fprintf(stderr, "perfbench: reloaded -J report differs from in-memory\n");
    const ProfileCounts counts = count(px);
    unique_callstacks = px.ex1.events.unique_callstacks() + px.ex2.events.unique_callstacks();
    if (!first_counts) {
      first_counts = std::make_unique<ProfileCounts>(counts);
      first_figures = figures;
    } else if (!(counts == *first_counts) || figures != first_figures) {
      std::fprintf(stderr, "perfbench: profile %llu did not repeat profile 1\n",
                   static_cast<unsigned long long>(k));
      ok = false;
    }
    if (opt.seed == pinned::kSeed && !(counts == pinned_counts())) {
      std::fprintf(stderr, "perfbench: seed %llu counts differ from pinned.hpp "
                   "(instructions %llu cycles %llu events %llu ea %llu/%llu)\n",
                   static_cast<unsigned long long>(opt.seed),
                   static_cast<unsigned long long>(counts.instructions),
                   static_cast<unsigned long long>(counts.cycles),
                   static_cast<unsigned long long>(counts.events),
                   static_cast<unsigned long long>(counts.ea_known),
                   static_cast<unsigned long long>(counts.ea_requested));
      ok = false;
    }
    out.op(ok, "profile " + std::to_string(k));

    ns_per_instr.push_back(secs * 1e9 / static_cast<double>(counts.instructions));
    instr_total += static_cast<double>(counts.instructions);
  }
  const Window w{t_begin, now_ns()};
  out.e2e["peak_rss_mb"] = median(rss_mb);

  out.e2e["setup_s"] = median(setup_s);
  out.e2e["op_ns_per_item_p50"] = quantile(ns_per_instr, 0.5);

  const ProfileCounts& c = *first_counts;
  auto& L = out.layer;
  L["machine.instructions"] = static_cast<double>(c.instructions);
  L["machine.cycles"] = static_cast<double>(c.cycles);
  L["collect.events"] = static_cast<double>(c.events);
  L["collect.ea_known_frac"] =
      c.ea_requested == 0 ? 0 : static_cast<double>(c.ea_known) / c.ea_requested;
  L["analyze.events"] = static_cast<double>(analyzed_events);
  L["analyze.unique_callstacks"] = static_cast<double>(unique_callstacks);
  L["experiment.bytes"] = static_cast<double>(bytes);
  if (tr.enabled()) {
    const std::vector<Span> spans = tr.spans();
    L["mcfsim.build_ms"] = median(per_root_sums(spans, "profile", "mcfsim.build", w, 1e6));
    L["collect.run_s"] = median(per_root_sums(spans, "profile", "collect.run", w, 1e9));
    L["collect.sim_minstr_per_s"] = instr_total / total_seconds(spans, "collect.run", w) / 1e6;
    fill_offline_layers(spans, w, "profile", static_cast<double>(analyzed_events),
                        static_cast<double>(bytes), L);
  }
  for (const auto& [name, n] : c.per_counter) {
    out.notes.push_back("events[" + name + "] = " + std::to_string(n));
  }
  return out;
}

}  // namespace perfbench
