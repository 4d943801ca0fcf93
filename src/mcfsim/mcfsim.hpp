// The MCF benchmark expressed in the scc DSL, compiled to s3 code and run on
// the simulated machine — the profiled target of the paper's case study.
// Its objective is checked against the independent successive-shortest-paths
// oracle in src/mcf/ssp.hpp; structurally it is the paper's program:
// the same function decomposition (refresh_potential, primal_bea_mpp,
// sort_basket, price_out_impl, update_tree, primal_iminus, flow_cost,
// dual_feasible, write_circulations) and the same node/arc layouts.
//
// The instance is supplied as "input" poked into simulated memory by the
// host before the run (standing in for reading mcf.in), so one compiled
// image can run many instances.
#pragma once

#include <functional>

#include "mcf/generator.hpp"
#include "scc/compile.hpp"

namespace dsprof::mcfsim {

struct BuildOptions {
  scc::CompileOptions compile;
  /// §3.3 optimization 1: reorder node members by reference frequency and
  /// pad the 120-byte struct to 128 bytes.
  bool optimized_node_layout = false;
  /// §3.3 optimization 1b: align the big heap arrays to 512-byte E$ lines.
  bool align_heap_arrays = false;
  /// §4 future work: software prefetch ahead of the streaming arc scan in
  /// primal_bea_mpp (pointer-chasing loads cannot be prefetched — the paper
  /// notes arc.cost is reached "too soon to be effectively prefetched").
  bool prefetch_arc_scan = false;
  /// er_opt's entry point into the build (src/opt/apply.hpp): invoked after
  /// the structs are declared (and the baseline-layout checks have run) but
  /// before any code is generated, so layout directives applied here —
  /// set_layout_order / set_pad_to — are reflected in every generated size
  /// and offset. Composes with (and typically replaces) the hand-tuned
  /// optimized_node_layout flag above.
  std::function<void(scc::Module&)> layout_hook;
};

/// Build and compile the DSL MCF program.
sym::Image build_mcf_image(const BuildOptions& opt = {});

struct RunParams {
  mcf::GeneratorParams instance;
  i64 refresh_gap = 4;
  i64 basket_size = 50;
  /// suspend_impl cut-off: flowless AT_LOWER arcs with reduced cost above
  /// this are deactivated between pricing rounds. Negative = disabled.
  i64 suspend_threshold = -1;
  bool emit_output = false;  // write_circulations text via host output
};

/// Encode the instance + runtime parameters into the simulated input area
/// (at the start of the heap). Call from the Collector's setup callback.
void write_input(mem::Memory& m, const RunParams& params);

}  // namespace dsprof::mcfsim
