#include <gtest/gtest.h>

#include "mcf/generator.hpp"
#include "mcf/ssp.hpp"

namespace dsprof::mcf {
namespace {

Instance tiny_instance() {
  // 4 nodes: 1 supplies 2 units, 4 demands 2; arcs form two paths.
  Instance inst;
  inst.n = 4;
  inst.supply = {0, 2, 0, 0, -2};
  inst.cands.push_back({1, 2, 1, 2});  // cheap path 1-2-4
  inst.cands.push_back({2, 4, 1, 2});
  inst.cands.push_back({1, 3, 5, 2});  // expensive path 1-3-4
  inst.cands.push_back({3, 4, 5, 2});
  return inst;
}

TEST(Generator, FeasibilityChainPresent) {
  GeneratorParams gp;
  gp.nodes = 50;
  gp.arcs = 100;
  Instance inst = generate_instance(gp);
  // First n-1 candidates are the chain i -> i+1.
  for (i64 i = 0; i < gp.nodes - 1; ++i) {
    EXPECT_EQ(inst.cands[static_cast<size_t>(i)].tail, i + 1);
    EXPECT_EQ(inst.cands[static_cast<size_t>(i)].head, i + 2);
  }
  // All arcs point forward in time (DAG).
  for (const auto& c : inst.cands) {
    EXPECT_LT(c.tail, c.head);
    EXPECT_GE(c.cost, 0);
    EXPECT_GT(c.cap, 0);
  }
}

TEST(Generator, SupplyBalances) {
  GeneratorParams gp;
  gp.nodes = 100;
  gp.sources = 5;
  gp.units = 7;
  Instance inst = generate_instance(gp);
  flow_t total = 0;
  for (flow_t s : inst.supply) total += s;
  EXPECT_EQ(total, 0);
}

TEST(Ssp, OracleSolvesTiny) {
  Instance inst = tiny_instance();
  const SspResult r = ssp_solve(inst.n, inst.supply, inst.cands);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 4);  // 2 units over the cheap path, cost (1+1)*2
}

TEST(Ssp, CapacityForcesSplit) {
  // Cheap path capacity 1: the second unit must use the expensive path.
  Instance inst = tiny_instance();
  inst.cands[0].cap = 1;
  inst.cands[1].cap = 1;
  const SspResult r = ssp_solve(inst.n, inst.supply, inst.cands);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 2 + 10);
}

TEST(Ssp, DetectsInfeasible) {
  std::vector<flow_t> supply = {0, 1, -1};
  std::vector<CandArc> cands;  // no arcs at all
  const SspResult r = ssp_solve(2, supply, cands);
  EXPECT_FALSE(r.feasible);
}

}  // namespace
}  // namespace dsprof::mcf
