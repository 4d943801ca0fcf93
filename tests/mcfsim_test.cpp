#include <gtest/gtest.h>

#include "machine/cpu.hpp"
#include "mcf/ssp.hpp"
#include "mcfsim/mcfsim.hpp"

namespace dsprof::mcfsim {
namespace {

struct SimRun {
  i64 objective = 0;
  i64 violations = 0;
  i64 art_flow = 0;
  i64 iterations = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  std::string output;
};

SimRun run_sim(const sym::Image& img, const RunParams& params, u64 max_instr = 400'000'000,
               machine::CpuConfig cpu_cfg = {}) {
  mem::Memory mem;
  img.load_into(mem);
  machine::Cpu cpu(mem, cpu_cfg);
  cpu.set_pc(img.entry);
  write_input(mem, params);
  const machine::RunResult r = cpu.run(max_instr);
  EXPECT_TRUE(r.halted) << "mcf-sim did not finish in " << max_instr << " instructions";
  const auto& t = cpu.trace();
  EXPECT_EQ(t.size(), 4u);
  SimRun out;
  if (t.size() == 4) {
    out.objective = t[0];
    out.violations = t[1];
    out.art_flow = t[2];
    out.iterations = t[3];
  }
  out.instructions = r.instructions;
  out.cycles = r.cycles;
  out.output = cpu.output();
  return out;
}

RunParams small_params(u64 seed = 11) {
  RunParams p;
  p.instance.seed = seed;
  p.instance.nodes = 120;
  p.instance.arcs = 700;
  p.instance.sources = 4;
  p.instance.units = 3;
  p.instance.window = 24;
  return p;
}

TEST(McfSim, ImageBuildsWithSaneSymbols) {
  const sym::Image img = build_mcf_image();
  EXPECT_GT(img.text_words.size(), 500u);
  const char* expected[] = {"main", "refresh_potential", "primal_bea_mpp", "sort_basket",
                            "price_out_impl", "update_tree", "primal_iminus",
                            "primal_net_simplex", "flow_cost", "dual_feasible",
                            "write_circulations", "read_min", "malloc"};
  for (const char* name : expected) {
    bool found = false;
    for (const auto& f : img.symtab.functions()) found |= f.name == name;
    EXPECT_TRUE(found) << name;
  }
  // Layout assertions (paper Figure 7) are enforced at build time; check the
  // emitted symbol table agrees.
  const auto expect_layout = [&](const char* name, u64 size,
                                 const std::vector<std::pair<std::string, u64>>& offsets) {
    const sym::TypeId id = img.symtab.types().find_struct(name);
    ASSERT_NE(id, sym::kInvalidType) << name;
    const sym::Type& t = img.symtab.types().get(id);
    EXPECT_EQ(t.size, size) << name;
    for (const auto& [member, offset] : offsets) {
      bool found = false;
      for (const auto& m : t.members) {
        if (m.name != member) continue;
        found = true;
        EXPECT_EQ(m.offset, offset) << name << "." << member;
      }
      EXPECT_TRUE(found) << name << "." << member;
    }
  };
  expect_layout("node", 120,
                {{"number", 0}, {"ident", 8}, {"pred", 16}, {"child", 24}, {"sibling", 32},
                 {"sibling_prev", 40}, {"depth", 48}, {"orientation", 56}, {"basic_arc", 64},
                 {"firstout", 72}, {"firstin", 80}, {"potential", 88}, {"flow", 96},
                 {"mark", 104}, {"time", 112}});
  // Figures 4/5 show arc.cost loads at +32.
  expect_layout("arc", 64, {{"ident", 16}, {"flow", 24}, {"cost", 32}});
}

class SimVsOracle : public ::testing::TestWithParam<u64> {};

TEST_P(SimVsOracle, ObjectiveMatchesSsp) {
  const sym::Image img = build_mcf_image();
  RunParams params = small_params(GetParam());
  const mcf::Instance inst = mcf::generate_instance(params.instance);
  const mcf::SspResult oracle = mcf::ssp_solve(inst.n, inst.supply, inst.cands);
  ASSERT_TRUE(oracle.feasible);
  // The optimum depends only on the arc universe, not on how many
  // candidates start active (the rest are priced in by price_out_impl).
  for (double initial_active : {params.instance.initial_active, 0.05, 0.3, 1.0}) {
    params.instance.initial_active = initial_active;
    const SimRun sim = run_sim(img, params);
    EXPECT_EQ(sim.violations, 0) << "dual feasibility violated, active " << initial_active;
    EXPECT_EQ(sim.art_flow, 0) << "artificial arcs still carry flow, active " << initial_active;
    EXPECT_EQ(sim.objective, oracle.cost)
        << "seed " << GetParam() << ", active " << initial_active;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimVsOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 17, 42));

TEST(McfSim, OptimizedLayoutPreservesSemantics) {
  BuildOptions plain;
  BuildOptions optimized;
  optimized.optimized_node_layout = true;
  optimized.align_heap_arrays = true;
  const sym::Image img1 = build_mcf_image(plain);
  const sym::Image img2 = build_mcf_image(optimized);
  RunParams params = small_params(5);
  const SimRun a = run_sim(img1, params);
  const SimRun b = run_sim(img2, params);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(b.violations, 0);
  // The optimized node struct is 128 bytes.
  const sym::TypeId node = img2.symtab.types().find_struct("node");
  EXPECT_EQ(img2.symtab.types().get(node).size, 128u);
}

TEST(McfSim, PrefetchVariantPreservesSemantics) {
  BuildOptions pf;
  pf.prefetch_arc_scan = true;
  RunParams params = small_params(5);
  const SimRun a = run_sim(build_mcf_image(), params);
  const SimRun b = run_sim(build_mcf_image(pf), params);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(McfSim, NonHwcprofPreservesSemantics) {
  BuildOptions plain;
  BuildOptions raw;
  raw.compile.hwcprof = false;
  RunParams params = small_params(5);
  const SimRun a = run_sim(build_mcf_image(plain), params);
  const SimRun b = run_sim(build_mcf_image(raw), params);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
  // hwcprof padding costs a little (paper §2.1 measured +1.3% runtime).
  EXPECT_GT(a.instructions, b.instructions);
  EXPECT_LT(static_cast<double>(a.instructions), static_cast<double>(b.instructions) * 1.3);
}

TEST(McfSim, SuspendImplPreservesObjectiveAndAddsPricingWork) {
  const sym::Image img = build_mcf_image();
  RunParams off = small_params(21);
  RunParams on = small_params(21);
  on.suspend_threshold = on.instance.max_cost;
  const SimRun a = run_sim(img, off);
  const SimRun b = run_sim(img, on);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(b.violations, 0);
  EXPECT_EQ(b.art_flow, 0);
}

TEST(McfSim, EmitOutputWritesCirculations) {
  RunParams params = small_params(3);
  params.emit_output = true;
  const SimRun r = run_sim(build_mcf_image(), params);
  EXPECT_FALSE(r.output.empty());
  // Rows are "tail head flow\n".
  EXPECT_NE(r.output.find('\n'), std::string::npos);
}

TEST(McfSim, DeterministicCycleCount) {
  const sym::Image img = build_mcf_image();
  RunParams params = small_params(9);
  const SimRun a = run_sim(img, params);
  const SimRun b = run_sim(img, params);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(McfSim, RefreshGapControlsRefreshWork) {
  // A smaller refresh gap means more refresh_potential calls: more work,
  // same answer.
  const sym::Image img = build_mcf_image();
  RunParams often = small_params(13);
  often.refresh_gap = 1;
  RunParams rare = small_params(13);
  rare.refresh_gap = 1000000;
  const SimRun a = run_sim(img, often);
  const SimRun b = run_sim(img, rare);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_GT(a.instructions, b.instructions);
}

}  // namespace
}  // namespace dsprof::mcfsim
