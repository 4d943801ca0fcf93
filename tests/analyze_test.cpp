#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "analyze/feedback.hpp"
#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"

namespace dsprof::analyze {
namespace {

using machine::HwEvent;

class AnalyzeEndToEnd : public ::testing::Test {
 protected:
  static machine::CpuConfig small_machine() {
    // Scale the caches below the fixture's working set so E$ metrics flow.
    machine::CpuConfig cfg;
    cfg.hierarchy.dcache = {4 * 1024, 4, 32, false};
    cfg.hierarchy.ecache = {32 * 1024, 2, 512, true};
    cfg.hierarchy.dtlb = {8, 2, 8 * 1024};
    return cfg;
  }
  static void SetUpTestSuite() {
    auto mod = testfix::make_chase_module(4000, 8, 16384);
    image_ = new sym::Image(scc::compile(*mod));
    ex1_ = new experiment::Experiment(
        testfix::quick_collect(*image_, "+ecstall,1009,+ecrm,97", "hi", small_machine()));
    ex2_ = new experiment::Experiment(
        testfix::quick_collect(*image_, "+ecref,211,+dtlbm,13", "off", small_machine()));
    analysis_ = new Analysis({ex1_, ex2_});
  }
  static void TearDownTestSuite() {
    delete analysis_;
    delete ex2_;
    delete ex1_;
    delete image_;
  }
  static sym::Image* image_;
  static experiment::Experiment* ex1_;
  static experiment::Experiment* ex2_;
  static Analysis* analysis_;
};

sym::Image* AnalyzeEndToEnd::image_ = nullptr;
experiment::Experiment* AnalyzeEndToEnd::ex1_ = nullptr;
experiment::Experiment* AnalyzeEndToEnd::ex2_ = nullptr;
Analysis* AnalyzeEndToEnd::analysis_ = nullptr;

TEST_F(AnalyzeEndToEnd, MetricsPresent) {
  const auto& p = analysis_->present();
  EXPECT_TRUE(p[kUserCpuMetric]);
  EXPECT_TRUE(p[static_cast<size_t>(HwEvent::EC_stall_cycles)]);
  EXPECT_TRUE(p[static_cast<size_t>(HwEvent::EC_rd_miss)]);
  EXPECT_TRUE(p[static_cast<size_t>(HwEvent::EC_ref)]);
  EXPECT_TRUE(p[static_cast<size_t>(HwEvent::DTLB_miss)]);
  EXPECT_FALSE(p[static_cast<size_t>(HwEvent::IC_miss)]);
}

TEST_F(AnalyzeEndToEnd, FunctionMetricsSumToTotal) {
  for (size_t metric = 0; metric < kNumMetrics; ++metric) {
    double sum = 0;
    for (const auto& f : analysis_->functions(metric)) sum += f.mv[metric];
    EXPECT_DOUBLE_EQ(sum, analysis_->total()[metric]) << metric_name(metric);
  }
}

TEST_F(AnalyzeEndToEnd, PcMetricsSumToTotal) {
  for (size_t metric = 0; metric < kNumMetrics; ++metric) {
    double sum = 0;
    for (const auto& r : analysis_->pcs(metric)) sum += r.mv[metric];
    EXPECT_DOUBLE_EQ(sum, analysis_->total()[metric]);
  }
}

TEST_F(AnalyzeEndToEnd, DataObjectsSumToDataTotal) {
  for (size_t metric = 0; metric < machine::kNumHwEvents; ++metric) {
    double sum = 0;
    for (const auto& r : analysis_->data_objects(metric)) sum += r.mv[metric];
    EXPECT_DOUBLE_EQ(sum, analysis_->data_total()[metric]);
  }
}

TEST_F(AnalyzeEndToEnd, DataTotalsMatchHwTotals) {
  // Every hardware event lands in exactly one data bucket.
  for (size_t metric = 0; metric < machine::kNumHwEvents; ++metric) {
    EXPECT_DOUBLE_EQ(analysis_->data_total()[metric], analysis_->total()[metric]);
  }
  // Clock samples have no data-space attribution.
  EXPECT_DOUBLE_EQ(analysis_->data_total()[kUserCpuMetric], 0.0);
}

TEST_F(AnalyzeEndToEnd, PointerChaseProfileHasTheRightShape) {
  // walk_list (pointer chase over `pair`) should dominate E$ stalls, and the
  // `pair` struct should dominate the data-space view.
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto funcs = analysis_->functions(stall);
  ASSERT_FALSE(funcs.empty());
  EXPECT_EQ(funcs[0].name, "walk_list");
  EXPECT_GT(funcs[0].mv[stall], analysis_->total()[stall] * 0.5);

  const auto objs = analysis_->data_objects(stall);
  ASSERT_FALSE(objs.empty());
  EXPECT_EQ(objs[0].name, "{structure:pair -}");
  EXPECT_EQ(objs[0].cat, DataCat::Struct);
}

TEST_F(AnalyzeEndToEnd, MemberExpansionFindsHotMembers) {
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto rows = analysis_->members("pair");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].offset, 0u);
  EXPECT_EQ(rows[1].offset, 8u);
  EXPECT_EQ(rows[2].offset, 16u);
  // walk_list touches payload (+8) and next (+16), never key (+0).
  EXPECT_GT(rows[1].mv[stall] + rows[2].mv[stall], 0.0);
  const double key_share = rows[0].mv[stall];
  EXPECT_LT(key_share, (rows[1].mv[stall] + rows[2].mv[stall]) * 0.2);
  // The typedef shows up in the member name.
  EXPECT_NE(rows[1].name.find("val_t=long payload"), std::string::npos);
}

TEST_F(AnalyzeEndToEnd, EffectivenessHighWithHwcprof) {
  // The fixture's loops are only ~10 instructions long — skid regularly
  // crosses the loop-back join, so effectiveness is lower than on realistic
  // code (the MCF integration test checks the paper-level values).
  for (const auto& r : analysis_->effectiveness()) {
    EXPECT_GT(r.effectiveness(), 0.5) << metric_name(r.metric);
    if (r.metric == static_cast<size_t>(HwEvent::DTLB_miss)) {
      EXPECT_DOUBLE_EQ(r.effectiveness(), 1.0);  // precise counter
    }
  }
}

TEST_F(AnalyzeEndToEnd, AnnotatedSourceCoversCriticalLoop) {
  const auto rows = analysis_->annotated_source("walk_list");
  ASSERT_FALSE(rows.empty());
  bool found_loop = false;
  double loop_stall = 0;
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  for (const auto& r : rows) {
    if (r.text.find("while (cur != 0)") != std::string::npos ||
        r.text.find("sum + cur->payload") != std::string::npos) {
      found_loop = true;
      loop_stall += r.mv[stall];
    }
  }
  EXPECT_TRUE(found_loop);
}

TEST_F(AnalyzeEndToEnd, AnnotatedDisassemblyHasDescriptorsAndTargets) {
  const auto rows = analysis_->annotated_disassembly("walk_list");
  ASSERT_FALSE(rows.empty());
  bool any_annot = false, any_target = false, any_load = false;
  for (const auto& r : rows) {
    if (!r.data_annot.empty()) any_annot = true;
    if (r.artificial) any_target = true;
    if (r.text.find("ldx") != std::string::npos) any_load = true;
  }
  EXPECT_TRUE(any_annot);
  EXPECT_TRUE(any_target);
  EXPECT_TRUE(any_load);
}

TEST_F(AnalyzeEndToEnd, PcNaming) {
  const auto rows = analysis_->pcs(static_cast<size_t>(HwEvent::EC_stall_cycles));
  ASSERT_FALSE(rows.empty());
  const std::string name = analysis_->pc_name(rows[0].pc);
  EXPECT_NE(name.find(" + 0x"), std::string::npos);
}

TEST_F(AnalyzeEndToEnd, SegmentViewAttributesHeap) {
  const auto segs = analysis_->segments();
  double heap = 0, total = 0;
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  for (const auto& s : segs) {
    total += s.mv[stall];
    if (s.name == "heap") heap = s.mv[stall];
  }
  ASSERT_GT(total, 0.0);
  EXPECT_GT(heap, total * 0.9);  // the workload's data all lives on the heap
}

TEST_F(AnalyzeEndToEnd, PageAndLineViewsNonEmpty) {
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  EXPECT_FALSE(analysis_->pages(stall, 5).empty());
  EXPECT_FALSE(analysis_->cache_lines(stall, 5).empty());
  EXPECT_LE(analysis_->pages(stall, 5).size(), 5u);
}

TEST_F(AnalyzeEndToEnd, InstanceViewMapsToAllocations) {
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto rows = analysis_->instances(stall, 10);
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_GE(r.base, mem::kHeapBase);
    EXPECT_GT(r.size, 0u);
  }
}

TEST_F(AnalyzeEndToEnd, InstancesCarryPaperStyleNames) {
  // The paper names dynamic allocations by allocating function plus ordinal
  // ("mcf_arena[0]"). The chase fixture allocates twice from main: the node
  // array then the long array, so the instance view must show main[0] and
  // main[1] — not the legacy "alloc[k]" fallback for missing site PCs.
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto rows = analysis_->instances(stall, 10);
  ASSERT_EQ(rows.size(), 2u);  // both heap objects take E$ stalls
  std::set<std::string> names;
  for (const auto& r : rows) names.insert(r.name);
  EXPECT_TRUE(names.count("main[0]")) << render_instances(*analysis_, stall);
  EXPECT_TRUE(names.count("main[1]")) << render_instances(*analysis_, stall);
  // Allocation order ties the ordinal to the record: main[0] is the node
  // array (larger object, allocated first).
  for (const auto& r : rows) {
    if (r.name == "main[0]") {
      EXPECT_EQ(r.alloc_index, 0u);
    }
    if (r.name == "main[1]") {
      EXPECT_EQ(r.alloc_index, 1u);
    }
  }
  EXPECT_NE(render_instances(*analysis_, stall).find("main[0]"), std::string::npos);
}

TEST_F(AnalyzeEndToEnd, ReportsRenderWithoutError) {
  EXPECT_NE(render_overview(*analysis_).find("<Total>"), std::string::npos);
  const std::string funcs = render_function_list(*analysis_);
  EXPECT_NE(funcs.find("walk_list"), std::string::npos);
  EXPECT_NE(funcs.find("<Total>"), std::string::npos);
  EXPECT_NE(render_annotated_source(*analysis_, "walk_list").find("while"),
            std::string::npos);
  EXPECT_NE(render_annotated_disassembly(*analysis_, "walk_list").find("ldx"),
            std::string::npos);
  EXPECT_NE(render_hot_pcs(*analysis_, static_cast<size_t>(HwEvent::EC_rd_miss), 10)
                .find("walk_list + 0x"),
            std::string::npos);
  const std::string objs = render_data_objects(
      *analysis_, static_cast<size_t>(HwEvent::EC_stall_cycles));
  EXPECT_NE(objs.find("{structure:pair -}"), std::string::npos);
  EXPECT_NE(objs.find("<Unknown>"), std::string::npos);
  EXPECT_NE(render_member_expansion(*analysis_, "pair").find("payload"), std::string::npos);
  EXPECT_NE(render_effectiveness(*analysis_).find("Effectiveness"), std::string::npos);
  EXPECT_NE(render_segments(*analysis_).find("heap"), std::string::npos);
}

TEST_F(AnalyzeEndToEnd, PrefetchFeedbackNamesHotReference) {
  const auto entries =
      prefetch_feedback(*analysis_, static_cast<size_t>(HwEvent::EC_stall_cycles), 0.02);
  ASSERT_FALSE(entries.empty());
  bool has_pair_ref = false;
  for (const auto& e : entries) {
    if (e.function == "walk_list" && e.struct_name == "pair") has_pair_ref = true;
  }
  EXPECT_TRUE(has_pair_ref);
  // Round-trip through the text format.
  const auto back = feedback_from_text(feedback_to_text(entries));
  ASSERT_EQ(back.size(), entries.size());
  EXPECT_EQ(back[0].function, entries[0].function);
  EXPECT_EQ(back[0].member, entries[0].member);
}

TEST(AnalyzeUnits, FeedbackParserSkipsMalformedLines) {
  // A hand-edited / corrupted feedback file: each bad line is skipped and
  // counted, never folded into the result as garbage.
  const std::string text =
      "# comment\n"
      "\n"
      "walk_list 12 pair payload 0.25\n"    // good
      "walk_list 12 pair payload\n"         // wrong field count (4)
      "walk_list 12 pair payload 0.25 9\n"  // wrong field count (6)
      "walk_list xx pair payload 0.25\n"    // non-numeric line
      "walk_list -2 pair payload 0.25\n"    // negative line
      "walk_list 12 pair payload nan\n"     // NaN share
      "walk_list 12 pair payload 1.75\n"    // share outside [0, 1]
      "walk_list 12 pair payload -0.1\n"    // share outside [0, 1]
      "scan 3 - - 0.5\n";                   // good (scalar reference)
  FeedbackParseStats stats;
  const auto entries = feedback_from_text(text, &stats);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(stats.parsed, 2u);
  EXPECT_EQ(stats.skipped, 7u);
  EXPECT_NE(stats.first_error.find("line 4"), std::string::npos);
  EXPECT_EQ(entries[0].function, "walk_list");
  EXPECT_EQ(entries[0].line, 12u);
  EXPECT_DOUBLE_EQ(entries[0].share, 0.25);
  EXPECT_EQ(entries[1].struct_name, "");  // "-" maps to empty
  EXPECT_EQ(entries[1].member, "");
}

TEST(AnalyzeUnits, FeedbackParserEmptyAndCommentOnly) {
  FeedbackParseStats stats;
  EXPECT_TRUE(feedback_from_text("", &stats).empty());
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_TRUE(feedback_from_text("# nothing here\n\n", &stats).empty());
  EXPECT_EQ(stats.skipped, 0u);
  // stats pointer is optional.
  EXPECT_TRUE(feedback_from_text("garbage line\n").empty());
}

TEST(AnalyzeUnits, DataCatNames) {
  EXPECT_STREQ(data_cat_name(DataCat::Unresolvable), "(Unresolvable)");
  EXPECT_STREQ(data_cat_name(DataCat::Scalars), "<Scalars>");
  EXPECT_TRUE(data_cat_is_unknown(DataCat::Unspecified));
  EXPECT_TRUE(data_cat_is_unknown(DataCat::Unverifiable));
  EXPECT_FALSE(data_cat_is_unknown(DataCat::Scalars));
  EXPECT_FALSE(data_cat_is_unknown(DataCat::Struct));
}

TEST(AnalyzeUnits, MetricNamesRoundTrip) {
  for (size_t m = 0; m < kNumMetrics; ++m) {
    EXPECT_EQ(metric_by_short_name(metric_short_name(m)), m);
  }
  EXPECT_THROW(metric_by_short_name("nope"), Error);
  EXPECT_TRUE(metric_in_cycles(kUserCpuMetric));
  EXPECT_TRUE(metric_in_cycles(static_cast<size_t>(HwEvent::EC_stall_cycles)));
  EXPECT_FALSE(metric_in_cycles(static_cast<size_t>(HwEvent::EC_rd_miss)));
}

TEST(AnalyzeUnits, SplitFraction) {
  // 120-byte objects from an aligned base over 512-byte lines: 14 of every
  // 64 objects straddle a boundary (the paper reports 28% for its heap
  // layout; the exact value depends on the base offset).
  EXPECT_NEAR(Analysis::split_fraction(0, 120, 6400, 512), 14.0 / 64.0, 1e-9);
  // 128-byte objects from an aligned base never straddle.
  EXPECT_DOUBLE_EQ(Analysis::split_fraction(0, 128, 6400, 512), 0.0);
  // ... but from a misaligned base they do.
  EXPECT_GT(Analysis::split_fraction(8, 128, 6400, 512), 0.2);
}

TEST(AnalyzeUnits, UnascertainableWithoutHwcprof) {
  auto mod = testfix::make_chase_module(300, 2, 512);
  scc::CompileOptions copt;
  copt.hwcprof = false;
  const sym::Image img = scc::compile(*mod, copt);
  auto ex = testfix::quick_collect(img, "+dcrm,89");
  Analysis a(ex);
  const auto objs = a.data_objects(static_cast<size_t>(HwEvent::DC_rd_miss));
  double unasc = 0, unknown = 0, total = 0;
  for (const auto& r : objs) {
    const double v = r.mv[static_cast<size_t>(HwEvent::DC_rd_miss)];
    total += v;
    if (r.cat == DataCat::Unascertainable) unasc += v;
    if (data_cat_is_unknown(r.cat)) unknown += v;
  }
  ASSERT_GT(total, 0.0);
  // Without -xhwcprof nothing can be attributed to a real data object:
  // validated triggers are (Unascertainable), blocked ones (Unresolvable).
  EXPECT_DOUBLE_EQ(unknown, total);
  EXPECT_GT(unasc, total * 0.4);
}

TEST(AnalyzeUnits, UnverifiableWithoutDwarf) {
  auto mod = testfix::make_chase_module(300, 2, 512);
  scc::CompileOptions copt;
  copt.dwarf = false;
  const sym::Image img = scc::compile(*mod, copt);
  auto ex = testfix::quick_collect(img, "+dcrm,89");
  Analysis a(ex);
  const auto objs = a.data_objects(static_cast<size_t>(HwEvent::DC_rd_miss));
  ASSERT_FALSE(objs.empty());
  EXPECT_EQ(objs[0].cat, DataCat::Unverifiable);
}

TEST(AnalyzeUnits, ConcurrentReaders) {
  // The Analysis view accessors are safe to call from multiple threads: the
  // first caller triggers the lazy reduction under the internal mutex, every
  // later caller renders from the same reduction (analysis.hpp documents
  // this contract, dsprofd relies on it when several snapshot requests
  // race).
  auto mod = testfix::make_chase_module(800, 4, 4096);
  const sym::Image img = scc::compile(*mod);
  auto ex = testfix::quick_collect(img, "+ecstall,1009,+ecrm,97", "hi");

  // What a single-threaded pass over the same events produces.
  Analysis reference(ex);
  const std::string expected = render_json_report(reference);

  Analysis shared(ex);  // fresh: the reduction has not run yet
  constexpr int kThreads = 8;
  std::vector<std::string> reports(kThreads);
  std::vector<double> totals(kThreads, -1.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix of view entry points so several lazy paths race.
      const auto funcs = shared.functions(kUserCpuMetric);
      totals[t] = shared.total()[kUserCpuMetric];
      (void)shared.pcs(static_cast<size_t>(HwEvent::EC_rd_miss));
      (void)shared.data_objects(static_cast<size_t>(HwEvent::EC_rd_miss));
      reports[t] = render_json_report(shared);
      ASSERT_FALSE(funcs.empty());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reports[t], expected) << "thread " << t;
    EXPECT_DOUBLE_EQ(totals[t], reference.total()[kUserCpuMetric]);
  }
}

TEST_F(AnalyzeEndToEnd, ConcurrentReadersGetViewsByValue) {
  // Views are computed per call and returned by value: concurrent readers
  // of one Analysis each get their own copy, equal to what a private
  // Analysis computes, and changing a copy changes no later view.
  const size_t m = static_cast<size_t>(HwEvent::EC_rd_miss);
  const Analysis& reference = *analysis_;
  const auto same_functions = [&](const std::vector<Analysis::FunctionRow>& got) {
    const auto want = reference.functions(m);
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].name != want[i].name || got[i].mv != want[i].mv) return false;
    }
    return true;
  };
  const auto same_pcs = [&](const std::vector<Analysis::PcRow>& got) {
    const auto want = reference.pcs(m);
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].pc != want[i].pc || got[i].artificial != want[i].artificial ||
          got[i].mv != want[i].mv) {
        return false;
      }
    }
    return true;
  };
  const auto same_members = [&](const std::vector<Analysis::MemberRow>& got) {
    const auto want = reference.members("pair");
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].name != want[i].name || got[i].mv != want[i].mv) return false;
    }
    return true;
  };
  const Analysis::MemberAccesses want_acc = reference.member_accesses();
  ASSERT_FALSE(want_acc.samples.empty());

  const Analysis shared({ex1_, ex2_});  // fresh: the reduction has not run yet
  constexpr int kThreads = 8;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool good = true;
      for (int pass = 0; pass < 3; ++pass) {
        auto funcs = shared.functions(m);
        auto pcs = shared.pcs(m);
        auto members = shared.members("pair");
        const Analysis::MemberAccesses acc = shared.member_accesses();
        good = good && same_functions(funcs) && same_pcs(pcs) && same_members(members) &&
               acc.windows == want_acc.windows && acc.samples.size() == want_acc.samples.size();
        // Scribble over this thread's copies; no other view may notice.
        for (auto& f : funcs) f.mv.fill(-1.0);
        pcs.clear();
        for (auto& row : members) row.name.clear();
      }
      ok[t] = good ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
  EXPECT_TRUE(same_functions(shared.functions(m)));
  EXPECT_TRUE(same_pcs(shared.pcs(m)));
  EXPECT_TRUE(same_members(shared.members("pair")));
}

TEST(AnalyzeUnits, MixedExperimentsMustShareBinary) {
  auto mod1 = testfix::make_chase_module(300, 2, 512);
  auto mod2 = testfix::make_chase_module(400, 2, 512);
  const sym::Image img1 = scc::compile(*mod1);
  const sym::Image img2 = scc::compile(*mod2);
  auto ex1 = testfix::quick_collect(img1, "+dcrm,89");
  auto ex2 = testfix::quick_collect(img2, "+dcrm,89");
  EXPECT_THROW(Analysis({&ex1, &ex2}), Error);
}

}  // namespace
}  // namespace dsprof::analyze
