// Independent min-cost-flow oracle: successive shortest paths with
// Bellman-Ford on the residual graph. Slow but simple — used only to verify
// the objective of the DSL MCF (src/mcfsim/) on small instances.
#pragma once

#include "mcf/generator.hpp"

namespace dsprof::mcf {

struct SspResult {
  bool feasible = false;
  cost_t cost = 0;
};

/// Solve the instance described by `supply` and `cands` (the full candidate
/// arc set — SSP has no column generation; it uses every arc).
SspResult ssp_solve(i64 n, const std::vector<flow_t>& supply,
                    const std::vector<CandArc>& cands);

}  // namespace dsprof::mcf
