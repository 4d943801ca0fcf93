// Deterministic instance generator replacing the SPEC `mcf.in` input (which
// we do not have): a vehicle-scheduling-flavoured min-cost-flow instance on
// a timeline of trips. Sources (depot pull-outs) feed the earliest trips,
// sinks (pull-ins) drain the latest; candidate deadhead arcs connect
// time-compatible trips. All arcs point forward in time, costs are
// nonnegative, and a high-capacity chain guarantees feasibility.
//
// The solver is the scc DSL program in src/mcfsim/ (the profiled target);
// src/mcf/ssp.hpp is the independent oracle for its objective.
#pragma once

#include <vector>

#include "support/common.hpp"

namespace dsprof::mcf {

using cost_t = i64;
using flow_t = i64;

/// Candidate arc of the full (implicit) arc universe; price_out_impl
/// activates violating candidates into the working arc array (column
/// generation, §3).
struct CandArc {
  i64 tail = 0, head = 0;  // 1-based node numbers
  cost_t cost = 0;
  flow_t cap = 0;
};

/// A generated min-cost-flow instance.
struct Instance {
  i64 n = 0;                   // real nodes, numbered 1..n
  std::vector<flow_t> supply;  // size n+1 (index by node number)
  std::vector<CandArc> cands;  // the implicit arc universe
};

struct GeneratorParams {
  u64 seed = 42;
  i64 nodes = 1000;          // trips
  i64 arcs = 8000;           // candidate deadhead arcs (the implicit set)
  i64 sources = 8;           // supply nodes (earliest trips)
  flow_t units = 4;          // supply per source
  i64 window = 64;           // max forward distance of a deadhead arc
  cost_t max_cost = 1000;
  flow_t max_cap = 3;        // deadhead arc capacity
  /// Fraction of candidate arcs activated up front (the rest are priced in
  /// by price_out_impl).
  double initial_active = 0.25;
  /// Hub structure: this fraction of deadhead arcs leaves one of the first
  /// `hubs` trips (depot-like pull-outs reaching far into the timetable).
  /// Hubs keep the optimal basis tree shallow — like real vehicle-scheduling
  /// bases — so pivots stay cheap relative to refresh_potential.
  double hub_fraction = 0.35;
  i64 hubs = 16;
};

/// Build the instance: the feasibility chain first, then the deadhead arcs.
Instance generate_instance(const GeneratorParams& p);

}  // namespace dsprof::mcf
