#include "mcf/generator.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace dsprof::mcf {

Instance generate_instance(const GeneratorParams& p) {
  DSP_CHECK(p.nodes >= 4, "need at least 4 nodes");
  DSP_CHECK(p.sources >= 1 && 2 * p.sources < p.nodes, "bad source count");
  Xoshiro256 rng(p.seed);

  Instance inst;
  inst.n = p.nodes;
  inst.supply.assign(static_cast<size_t>(p.nodes + 1), 0);
  for (i64 s = 0; s < p.sources; ++s) {
    inst.supply[static_cast<size_t>(1 + s)] = p.units;                    // pull-outs
    inst.supply[static_cast<size_t>(p.nodes - s)] = -p.units;             // pull-ins
  }

  // Feasibility chain i -> i+1: ample capacity but expensive, so the optimal
  // basis prefers the random deadhead arcs — the resulting spanning tree
  // connects memory-distant nodes, giving refresh_potential the cache- and
  // TLB-hostile traversal the paper observes.
  for (i64 i = 1; i < p.nodes; ++i) {
    CandArc c;
    c.tail = i;
    c.head = i + 1;
    c.cost = p.max_cost + static_cast<cost_t>(rng.below(16));
    c.cap = p.units * p.sources;  // can carry everything
    inst.cands.push_back(c);
  }
  // Random forward deadhead arcs: hub arcs fan out from the earliest trips
  // across the whole timetable; the rest stay within the local window.
  for (i64 k = 0; k < p.arcs; ++k) {
    CandArc c;
    if (rng.uniform() < p.hub_fraction) {
      c.tail = 1 + static_cast<i64>(rng.below(static_cast<u64>(std::min(p.hubs, p.nodes - 1))));
    } else {
      c.tail = 1 + static_cast<i64>(rng.below(static_cast<u64>(p.nodes - 1)));
    }
    const i64 reach = c.tail <= p.hubs ? p.nodes - c.tail
                                       : std::min<i64>(p.window, p.nodes - c.tail);
    c.head = c.tail + 1 + static_cast<i64>(rng.below(static_cast<u64>(reach)));
    c.cost = static_cast<cost_t>(rng.below(static_cast<u64>(p.max_cost)));
    c.cap = 1 + static_cast<flow_t>(rng.below(static_cast<u64>(p.max_cap)));
    inst.cands.push_back(c);
  }
  return inst;
}

}  // namespace dsprof::mcf
