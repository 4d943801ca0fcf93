// End-to-end: the full paper workflow (compile -> collect two experiments ->
// analyze code- and data-space views) on the DSL MCF, on a scaled machine.
#include <gtest/gtest.h>

#include "analyze/reports.hpp"
#include "collect/collector.hpp"
#include "mcfsim/experiments.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace dsprof {
namespace {

using analyze::Analysis;
using machine::HwEvent;

class PaperWorkflow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exps_ = new mcfsim::PaperExperiments(
        mcfsim::collect_paper_experiments(mcfsim::PaperSetup::standard()));
    analysis_ = new Analysis({&exps_->ex1, &exps_->ex2});
  }
  static void TearDownTestSuite() {
    delete analysis_;
    delete exps_;
  }
  static mcfsim::PaperExperiments* exps_;
  static Analysis* analysis_;
};

mcfsim::PaperExperiments* PaperWorkflow::exps_ = nullptr;
Analysis* PaperWorkflow::analysis_ = nullptr;

TEST_F(PaperWorkflow, RefreshPotentialDominatesTheProfile) {
  // Paper Figure 2: refresh_potential leads User CPU time and E$ stalls.
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto by_stall = analysis_->functions(stall);
  ASSERT_FALSE(by_stall.empty());
  EXPECT_EQ(by_stall[0].name, "refresh_potential");
  EXPECT_GT(by_stall[0].mv[stall], analysis_->total()[stall] * 0.35);

  const auto by_cpu = analysis_->functions(analyze::kUserCpuMetric);
  ASSERT_FALSE(by_cpu.empty());
  // The top CPU consumers include the paper's three hot functions.
  std::vector<std::string> top;
  for (size_t i = 0; i < std::min<size_t>(5, by_cpu.size()); ++i) top.push_back(by_cpu[i].name);
  auto has = [&](const std::string& n) {
    return std::find(top.begin(), top.end(), n) != top.end();
  };
  EXPECT_TRUE(has("refresh_potential"));
  EXPECT_TRUE(has("primal_bea_mpp") || has("price_out_impl"));
}

TEST_F(PaperWorkflow, DtlbMissesConcentrateInRefreshPotential) {
  // Paper: 88% of DTLB misses in refresh_potential (random walk over nodes).
  const size_t dtlb = static_cast<size_t>(HwEvent::DTLB_miss);
  const auto rows = analysis_->functions(dtlb);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].name, "refresh_potential");
  EXPECT_GT(rows[0].mv[dtlb], analysis_->total()[dtlb] * 0.5);
}

TEST_F(PaperWorkflow, ArcAndNodeDominateDataSpace) {
  // Paper Figure 6: structure:arc and structure:node account for nearly all
  // E$ stalls; everything else is noise.
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto objs = analysis_->data_objects(stall);
  ASSERT_GE(objs.size(), 2u);
  double arc = 0, node = 0;
  const double total = analysis_->data_total()[stall];
  for (const auto& r : objs) {
    if (r.name == "{structure:arc -}") arc = r.mv[stall];
    if (r.name == "{structure:node -}") node = r.mv[stall];
  }
  EXPECT_GT(arc + node, total * 0.75);
  EXPECT_GT(arc, 0.0);
  EXPECT_GT(node, 0.0);
}

TEST_F(PaperWorkflow, NodeMemberExpansionMatchesFigure7Shape) {
  // The hot node members are orientation (+56), child (+24), potential (+88),
  // pred (+16), basic_arc (+64); cold members like mark/time stay near zero.
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  const auto rows = analysis_->members("node");
  ASSERT_EQ(rows.size(), 15u);
  double hot = 0, cold = 0, total = 0;
  for (const auto& r : rows) {
    total += r.mv[stall];
    const bool is_hot = r.offset == 56 || r.offset == 24 || r.offset == 88 || r.offset == 16 ||
                        r.offset == 64;
    (is_hot ? hot : cold) += r.mv[stall];
  }
  ASSERT_GT(total, 0.0);
  EXPECT_GT(hot, total * 0.85);
  EXPECT_LT(cold, total * 0.15);
}

TEST_F(PaperWorkflow, BacktrackingEffectivenessMatchesPaperOrdering) {
  // Paper §3.2.5: 100% for DTLB (precise), ~100% for E$ read misses, >99%
  // for E$ stalls, ~94% for E$ refs (the skid ordering).
  double eff[analyze::kNumMetrics];
  for (auto& e : eff) e = -1;
  for (const auto& r : analysis_->effectiveness()) eff[r.metric] = r.effectiveness();
  const double dtlb = eff[static_cast<size_t>(HwEvent::DTLB_miss)];
  const double ecrm = eff[static_cast<size_t>(HwEvent::EC_rd_miss)];
  const double ecstall = eff[static_cast<size_t>(HwEvent::EC_stall_cycles)];
  const double ecref = eff[static_cast<size_t>(HwEvent::EC_ref)];
  EXPECT_DOUBLE_EQ(dtlb, 1.0);
  EXPECT_GT(ecrm, 0.9);
  EXPECT_GT(ecstall, 0.9);
  EXPECT_GT(ecref, 0.65);
  EXPECT_GE(ecrm, ecref);  // more skid => less effective
}

TEST_F(PaperWorkflow, AnnotatedViewsShowTheCriticalLoop) {
  const std::string src = analyze::render_annotated_source(*analysis_, "refresh_potential");
  EXPECT_NE(src.find("node->orientation"), std::string::npos);
  EXPECT_NE(src.find("node->basic_arc->cost + node->pred->potential"), std::string::npos);
  const std::string dis =
      analyze::render_annotated_disassembly(*analysis_, "refresh_potential");
  EXPECT_NE(dis.find("ldx"), std::string::npos);
  EXPECT_NE(dis.find("{structure:node -}.{long orientation}"), std::string::npos);
  EXPECT_NE(dis.find("{structure:arc -}.{cost_t=long cost}"), std::string::npos);
  EXPECT_NE(dis.find("<branch target>"), std::string::npos);
}

TEST_F(PaperWorkflow, HotPcsIncludeArcCostLoads) {
  const std::string pcs =
      analyze::render_hot_pcs(*analysis_, static_cast<size_t>(HwEvent::EC_rd_miss), 15);
  EXPECT_NE(pcs.find("refresh_potential + 0x"), std::string::npos);
  EXPECT_NE(pcs.find("{structure:arc -}.{cost_t=long cost}"), std::string::npos);
}

TEST_F(PaperWorkflow, OverviewReportsStallAndDtlbCost) {
  const std::string overview = analyze::render_overview(*analysis_);
  EXPECT_NE(overview.find("E$ Stall"), std::string::npos);
  EXPECT_NE(overview.find("DTLB miss cost"), std::string::npos);
  EXPECT_NE(overview.find("E$ Read Miss rate"), std::string::npos);
}

TEST_F(PaperWorkflow, StreamedSessionsMatchOfflineAnalysisBitForBit) {
  // The dsprofd acceptance bar on the paper's own workloads: stream each of
  // the two collect runs into its own live session and require the rendered
  // snapshot to be byte-identical to the offline report over the same events
  // (`er_print <dir> -J`). Integer metric accumulation is associative, so
  // the batch split (here an uneven 777 events per frame) must not matter.
  // Block, not the default DropOldest: on a loaded host the reducer may
  // fall more than a queue's worth of batches behind, and the check needs
  // every event folded.
  serve::ServerOptions sopt;
  sopt.overload = serve::ServerOptions::Overload::Block;
  serve::Server server(sopt);
  for (const experiment::Experiment* ex : {&exps_->ex1, &exps_->ex2}) {
    auto [client_end, server_end] = serve::make_pipe_pair();
    server.add_session(std::move(server_end));
    serve::Client client(std::move(client_end));

    serve::Accounting acct;
    ASSERT_TRUE(serve::stream_experiment(client, *ex, /*batch_events=*/777, acct).ok());
    ASSERT_EQ(acct.events_in, ex->events.size());
    ASSERT_EQ(acct.events_reduced, ex->events.size());
    ASSERT_EQ(acct.events_dropped, 0u);

    std::string streamed;
    ASSERT_TRUE(client.snapshot(acct, streamed).ok());
    Analysis offline(*ex);
    EXPECT_EQ(streamed, analyze::render_json_report(offline));
    ASSERT_TRUE(client.close(acct).ok());
  }
  server.stop();
}

}  // namespace
}  // namespace dsprof
