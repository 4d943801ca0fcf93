// Parallel metric reduction over columnar event stores.
//
// The seed's Analysis constructor folded every event into half a dozen
// std::maps (string keys, per-event frame-name vectors) — a serial,
// allocation-heavy pass over 10^5-10^6 events. The Reduction engine replaces
// it with a single-pass, shardable fold:
//
//   * events are partitioned into contiguous shards;
//   * each shard folds each of its experiment segments through its own
//     IncrementalReducer — the same fold path dsprofd runs per session —
//     into a ReductionResult built on flat hash maps keyed by small integer
//     composites (function ids instead of strings, packed (pc,artificial) /
//     (caller,callee) / (cat,sid) keys);
//   * results accumulate integer weights (u64) — integer addition is
//     associative and commutative, so the merged result is bit-identical
//     for ANY thread count (the seed summed the same integral weights in
//     doubles, exactly representable below 2^53, so results also match the
//     seed bit-for-bit);
//   * the segment results merge with merge_results — the same merge the
//     dsprofd fleet view uses — and per-event EA samples concatenate in
//     segment order, preserving the serial event order.
//
// Thread count comes from the DSPROF_THREADS environment knob (default:
// hardware concurrency; 1 = deterministic serial — which, by the argument
// above, produces the same bits anyway).
//
// Two engines produce bit-identical results (equivalence- and property-
// tested in tests/event_store_test.cpp):
//
//   Engine::Radix     the production engine. Per-event hash-map probes are
//                     replaced by radix partitioning over the SoA columns:
//                     each batch of events is first partitioned into dense
//                     decision ids (unique (candidate_pc, delivered_pc,
//                     pic/event/flags) tuples — symbol lookups and candidate
//                     validation run once per unique tuple, not per event)
//                     and dense path ids (unique (callstack, leaf) pairs),
//                     then a tight accumulation loop adds weights into
//                     per-segment dense arrays indexed by those ids. The id
//                     arrays expand into the hash-keyed ReductionResult once
//                     per fold call.
//   Engine::Baseline  the seed's serial std::map/string fold verbatim, with
//                     its own sample count — the independent equivalence
//                     oracle and benchmark baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyze/metrics.hpp"
#include "experiment/experiment.hpp"
#include "support/flat_hash.hpp"

namespace dsprof::analyze {

/// Integer metric accumulator — exact, order-independent summation.
using MetricCounts = std::array<u64, kNumMetrics>;

inline MetricVector to_metric_vector(const MetricCounts& c) {
  MetricVector v{};
  for (size_t i = 0; i < kNumMetrics; ++i) v[i] = static_cast<double>(c[i]);
  return v;
}

/// One effective-address sample (validated trigger with a recomputed EA),
/// kept in event order for the address-space views.
struct EaSample {
  u64 ea;
  size_t metric;
  double w;
};

/// The merged aggregates the views render from. Keys are packed composites:
///   pc:     (pc << 1) | artificial
///   func:   function id (index into func_names)
///   incl:   function id
///   edge:   (caller id << 32) | callee id
///   line:   source line
///   data:   (cat << 32) | struct TypeId
///   member: (TypeId << 32) | member index
struct ReductionResult {
  std::array<bool, kNumMetrics> present{};
  MetricCounts total{};
  MetricCounts data_total{};

  FlatHashU64Map<MetricCounts> pc;
  FlatHashU64Map<MetricCounts> func;
  FlatHashU64Map<MetricCounts> incl;
  FlatHashU64Map<MetricCounts> edge;
  FlatHashU64Map<MetricCounts> line;
  FlatHashU64Map<MetricCounts> data;
  FlatHashU64Map<MetricCounts> member;

  std::vector<EaSample> ea_samples;

  /// Function id -> display name. Ids 0..N-1 are the symbol table's
  /// functions in table order; id N is "<unknown code>".
  std::vector<std::string> func_names;

  size_t events_reduced = 0;

  /// Per-metric event (sample) counts over the reduced events — clock
  /// samples under kUserCpuMetric, hardware samples under their event id.
  /// Each engine tallies them in its own fold. This is the n behind the
  /// sampling-error estimate (Analysis::metric_stderr) and what
  /// Analysis::sample_counts returns; carrying it in the result lets the
  /// dsprofd snapshot path — where the rendering Experiment holds no
  /// events — report the same standard errors an offline analysis would.
  MetricCounts sample_counts{};
};

/// Merge completed reductions into one, as if their event sequences had
/// been concatenated in part order and reduced offline. Exact: every
/// aggregate is an integer (u64) sum, so the merge is associative and
/// commutative per key, and EA samples concatenate in part order. One merge
/// serves both scales: Reduction::run's per-segment results, and the fleet
/// MergedView — the cross-session extension of the online-vs-offline
/// bit-identity invariant (merging N sessions' live aggregates == one
/// offline multi-dir reduction). All parts must come from the same binary
/// (non-empty func_names must agree); throws dsprof::Error otherwise.
ReductionResult merge_results(const std::vector<const ReductionResult*>& parts);

class Reduction {
 public:
  enum class Engine {
    Radix,     // radix-partitioned dense fold (the production engine)
    Baseline,  // the seed's serial std::map fold (oracle/benchmark)
  };

  /// Resolve the thread count: `requested` if nonzero, else $DSPROF_THREADS,
  /// else std::thread::hardware_concurrency() (min 1).
  static unsigned resolve_threads(unsigned requested = 0);

  /// Reduce all events of `exps` (which must share one binary). `threads`
  /// as in resolve_threads (the Baseline engine is always serial).
  static ReductionResult run(const std::vector<const experiment::Experiment*>& exps,
                             unsigned threads = 0, Engine engine = Engine::Radix);
};

/// The radix fold state behind every IncrementalReducer (defined in
/// reduction.cpp), bound to one symbol table and one set of backtrack flags
/// for its lifetime. Caches decisions (per unique event tuple) and paths
/// (per unique callstack+leaf) so the per-event work is a few probes plus
/// dense array adds.
class RadixFolder;

/// Incremental reduction: the one Engine::Radix fold path. dsprofd folds
/// each session's batches into one as they arrive (src/serve/), and
/// Reduction::run folds each shard's per-experiment segments through one
/// apiece before merging them with merge_results.
///
/// Because every aggregate accumulates integer weights (u64) — associative
/// and commutative — the result after folding batches [0,a), [a,b), ...
/// [y,n) is bit-identical to one offline reduction over [0,n) for any
/// batching, and per-event EA samples concatenate in event order exactly as
/// the offline shard merge does. That is the serve subsystem's
/// online-vs-offline invariant (DESIGN.md §3.3), and since the offline
/// engine is this same reducer it holds by construction;
/// tests/serve_test.cpp and the streamed-session integration test still
/// check it end to end.
///
/// Not thread-safe: one reducer per session (or shard segment), fold()
/// called from a single thread. snapshot() returns a deep copy that
/// Analysis can render views from while folding continues.
class IncrementalReducer {
 public:
  /// `symtab` must outlive the reducer. `counters` supplies the per-event
  /// backtracking flags exactly as an Experiment's counter specs would.
  IncrementalReducer(const sym::SymbolTable& symtab,
                     const std::vector<experiment::CounterSpec>& counters);
  ~IncrementalReducer();
  IncrementalReducer(IncrementalReducer&&) noexcept;
  IncrementalReducer& operator=(IncrementalReducer&&) noexcept;

  /// Fold events [begin, end) of `events` into the live aggregates. The
  /// store must stay alive (and un-moved) only for the duration of the
  /// call; each call re-derives callstack identities, so stores may come
  /// and go between calls (the dsprofd batch decode path).
  void fold(const experiment::EventStore& events, size_t begin, size_t end);

  /// Deep copy of the live aggregates for snapshot rendering.
  ReductionResult snapshot() const { return r_; }

  /// Move the aggregates out without a copy; the reducer is spent.
  ReductionResult release() && { return std::move(r_); }

 private:
  ReductionResult r_;
  std::unique_ptr<RadixFolder> folder_;  // persistent decision/path caches
};

}  // namespace dsprof::analyze
