#include "analyze/reduction.hpp"

#include <cstdlib>
#include <map>
#include <thread>

#include "obs/obs.hpp"

namespace dsprof::analyze {

namespace {

using experiment::EventStore;
using experiment::Experiment;

// Packed composite keys (documented in reduction.hpp).
constexpr u64 pc_key(u64 pc, bool artificial) { return (pc << 1) | (artificial ? 1 : 0); }
constexpr u64 edge_key(u32 caller, u32 callee) { return (u64{caller} << 32) | callee; }
constexpr u64 data_key(u8 cat, u32 sid) { return (u64{cat} << 32) | sid; }
constexpr u64 member_key(u32 sid, u32 member) { return (u64{sid} << 32) | member; }

// DataCat values, mirrored here to avoid a circular include with
// analysis.hpp (which owns the public enum). Kept in sync by
// static_asserts in analysis.cpp.
enum : u8 {
  kCatStruct = 0,
  kCatScalars = 1,
  kCatUnspecified = 2,
  kCatUnresolvable = 3,
  kCatUnascertainable = 4,
  kCatUnidentified = 5,
  kCatUnverifiable = 6,
};

/// Which events were collected with apropos backtracking. Keyed by event,
/// not by PIC register: a multiplexed run time-slices several counter sets
/// onto the same registers, so a register number no longer identifies a
/// counter spec (for a single always-live set the two keyings are
/// equivalent — at most one spec per register).
using BacktrackFlags = std::array<bool, machine::kNumHwEvents>;

BacktrackFlags backtrack_flags(const std::vector<experiment::CounterSpec>& counters) {
  BacktrackFlags bt{};
  for (const auto& spec : counters) bt[static_cast<size_t>(spec.event)] = spec.backtrack;
  return bt;
}

/// Function id -> display name: the symbol table's functions in table
/// order, then "<unknown code>".
std::vector<std::string> func_names_of(const sym::SymbolTable& st) {
  std::vector<std::string> names;
  names.reserve(st.functions().size() + 1);
  for (const auto& f : st.functions()) names.push_back(f.name);
  names.push_back("<unknown code>");
  return names;
}

u32 func_id_for(const sym::SymbolTable& st, u64 pc, u32 unknown_id) {
  const sym::FuncInfo* f = st.find_function(pc);
  if (!f) return unknown_id;
  return static_cast<u32>(f - st.functions().data());
}

void merge_map(FlatHashU64Map<MetricCounts>& into, const FlatHashU64Map<MetricCounts>& from) {
  for (const auto& e : from.entries()) {
    MetricCounts& c = into[e.key];
    for (size_t m = 0; m < kNumMetrics; ++m) c[m] += e.value[m];
  }
}

// ---------------------------------------------------------------------------
// Baseline engine: the seed's std::map/string fold, kept as the equivalence
// oracle for the radix engine and as the "seed-equivalent" mode of
// bench/pipeline_throughput. Deliberately mirrors the seed's data structures
// (string-keyed ordered maps, a per-event vector<string> of frame names) so
// that its cost profile is honest.

struct BaselineState {
  std::array<bool, kNumMetrics> present{};
  MetricVector total{};
  MetricVector data_total{};
  std::map<std::pair<u64, bool>, MetricVector> pc_map;
  std::map<std::string, MetricVector> func_map;
  std::map<std::string, MetricVector> incl_map;
  std::map<std::pair<std::string, std::string>, MetricVector> edge_map;
  std::map<u32, MetricVector> line_map;
  std::map<std::pair<u8, u32>, MetricVector> data_map;
  std::map<std::pair<u32, u32>, MetricVector> member_map;
  std::vector<EaSample> ea_samples;
  MetricCounts sample_counts{};
};

void baseline_attribute_code(BaselineState& st, const sym::SymbolTable& symtab, u64 pc,
                             bool artificial, size_t metric, double w,
                             const experiment::CallstackRef& callstack) {
  add_to(st.pc_map[{pc, artificial}], metric, w);
  const sym::FuncInfo* f = symtab.find_function(pc);
  const std::string leaf = f ? f->name : "<unknown code>";
  add_to(st.func_map[leaf], metric, w);
  if (auto line = symtab.line_for(pc)) add_to(st.line_map[*line], metric, w);

  std::vector<std::string> frames;
  frames.reserve(callstack.size() + 1);
  for (u64 site : callstack) {
    const sym::FuncInfo* cf = symtab.find_function(site);
    frames.push_back(cf ? cf->name : "<unknown code>");
  }
  frames.push_back(leaf);
  std::vector<const std::string*> seen;
  for (const auto& name : frames) {
    bool dup = false;
    for (const auto* s : seen) dup |= *s == name;
    if (!dup) {
      add_to(st.incl_map[name], metric, w);
      seen.push_back(&name);
    }
  }
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    add_to(st.edge_map[{frames[i], frames[i + 1]}], metric, w);
  }
}

void baseline_fold(BaselineState& bs, const Experiment& ex,
                   const BacktrackFlags& backtrack_by_event, size_t i) {
  const EventStore& ev = ex.events;
  const sym::SymbolTable& st = ex.image.symtab;
  const experiment::EventView e = ev[i];
  const double w = static_cast<double>(e.weight);

  if (e.pic == machine::kClockPic) {
    bs.sample_counts[kUserCpuMetric] += 1;
    bs.present[kUserCpuMetric] = true;
    add_to(bs.total, kUserCpuMetric, w);
    baseline_attribute_code(bs, st, e.delivered_pc, false, kUserCpuMetric, w, e.callstack);
    return;
  }

  const auto metric = static_cast<size_t>(e.event);
  bs.sample_counts[metric] += 1;
  bs.present[metric] = true;
  add_to(bs.total, metric, w);

  const bool backtracked =
      e.pic < machine::kNumPics && backtrack_by_event[static_cast<size_t>(e.event)];
  auto data_bucket = [&](u8 cat, u32 sid) {
    add_to(bs.data_map[{cat, sid}], metric, w);
    add_to(bs.data_total, metric, w);
  };

  if (!backtracked || !e.has_candidate) {
    baseline_attribute_code(bs, st, e.delivered_pc, false, metric, w, e.callstack);
    data_bucket(kCatUnresolvable, sym::kInvalidType);
    return;
  }
  if (!st.has_branch_targets()) {
    baseline_attribute_code(bs, st, e.candidate_pc, false, metric, w, e.callstack);
    data_bucket(kCatUnverifiable, sym::kInvalidType);
    return;
  }
  if (auto target = st.branch_target_in(e.candidate_pc, e.delivered_pc)) {
    baseline_attribute_code(bs, st, *target, true, metric, w, e.callstack);
    data_bucket(kCatUnresolvable, sym::kInvalidType);
    return;
  }
  baseline_attribute_code(bs, st, e.candidate_pc, false, metric, w, e.callstack);
  if (!st.hwcprof()) {
    data_bucket(kCatUnascertainable, sym::kInvalidType);
    return;
  }
  const sym::MemRef* ref = st.memref_for(e.candidate_pc);
  if (!ref) {
    data_bucket(kCatUnspecified, sym::kInvalidType);
    return;
  }
  switch (ref->kind) {
    case sym::MemRef::Kind::Unidentified:
      data_bucket(kCatUnidentified, sym::kInvalidType);
      break;
    case sym::MemRef::Kind::Scalar:
      data_bucket(kCatScalars, sym::kInvalidType);
      break;
    case sym::MemRef::Kind::StructMember:
      data_bucket(kCatStruct, ref->aggregate);
      add_to(bs.member_map[{ref->aggregate, ref->member}], metric, w);
      break;
  }
  if (e.has_ea) bs.ea_samples.push_back({e.ea, metric, w});
}

MetricCounts counts_of(const MetricVector& v) {
  MetricCounts c{};
  for (size_t m = 0; m < kNumMetrics; ++m) c[m] = static_cast<u64>(v[m]);
  return c;
}

ReductionResult reduce_baseline(const std::vector<const Experiment*>& exps) {
  BaselineState bs;
  size_t n = 0;
  for (const auto* ex : exps) {
    const BacktrackFlags bt = backtrack_flags(ex->counters);
    n += ex->events.size();
    for (size_t i = 0; i < ex->events.size(); ++i) baseline_fold(bs, *ex, bt, i);
  }

  // Convert the string-keyed maps into the packed-key result form.
  const sym::SymbolTable& st = exps[0]->image.symtab;
  const auto unknown_id = static_cast<u32>(st.functions().size());
  auto id_of = [&](const std::string& name) -> u32 {
    for (size_t f = 0; f < st.functions().size(); ++f) {
      if (st.functions()[f].name == name) return static_cast<u32>(f);
    }
    return unknown_id;
  };

  ReductionResult r;
  r.events_reduced = n;
  r.present = bs.present;
  r.total = counts_of(bs.total);
  r.data_total = counts_of(bs.data_total);
  for (const auto& [k, v] : bs.pc_map) r.pc[pc_key(k.first, k.second)] = counts_of(v);
  for (const auto& [k, v] : bs.func_map) r.func[id_of(k)] = counts_of(v);
  for (const auto& [k, v] : bs.incl_map) r.incl[id_of(k)] = counts_of(v);
  for (const auto& [k, v] : bs.edge_map) {
    r.edge[edge_key(id_of(k.first), id_of(k.second))] = counts_of(v);
  }
  for (const auto& [k, v] : bs.line_map) r.line[k] = counts_of(v);
  for (const auto& [k, v] : bs.data_map) r.data[data_key(k.first, k.second)] = counts_of(v);
  for (const auto& [k, v] : bs.member_map) {
    r.member[member_key(k.first, k.second)] = counts_of(v);
  }
  r.ea_samples = std::move(bs.ea_samples);
  r.func_names = func_names_of(st);
  r.sample_counts = bs.sample_counts;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Radix engine: batch-level radix partitioning by aggregation key.
//
// A per-event fold (the Baseline engine) pays, per event, a find_function
// per callstack frame, a line lookup, candidate validation against the
// branch-target table and half a dozen map probes. Almost all of that work
// is a pure function of a small tuple that repeats enormously: the
// *decision* tuple
// (candidate_pc, delivered_pc, pic/event/flags) — a hot loop delivers
// thousands of events with identical tuples — and the *path* tuple
// (callstack, attributed leaf). The radix fold partitions each batch into
// dense ids over those tuples (the expensive classification runs once per
// unique tuple), accumulates weights into flat arrays indexed by id, and
// expands the dense accumulators into the hash-keyed ReductionResult once
// per fold call. The fold loop itself is fused over the product of the two
// tuples: a single hash probe per event against a cache of
// (decision ⊗ callstack) entries that carry their own accumulators, so the
// steady-state per-event cost is one cache line plus the column loads.
// Everything accumulated is a u64 sum, so the result is bit-identical to
// the Baseline engine for any batching, shard count, or thread count.

class RadixFolder {
 public:
  /// Decisions depend on the symbol table and the backtrack flags, so a
  /// folder is bound to both for its lifetime (one per IncrementalReducer).
  RadixFolder(const sym::SymbolTable& symtab, const BacktrackFlags& backtrack_by_event)
      : st_(&symtab),
        backtrack_by_event_(backtrack_by_event),
        unknown_id_(static_cast<u32>(symtab.functions().size())) {}

  /// Fold events [begin, end) of `ev` into `r`. Callstack identities are
  /// re-derived per call (handles are only meaningful within one store), so
  /// successive calls may pass different stores — the dsprofd batch path.
  void fold(ReductionResult& r, const experiment::EventStore& ev, size_t begin, size_t end);

 private:
  /// One classified event tuple: every per-event question the attribution
  /// pipeline asks, answered once. `cand`/`del`/`meta` are the exact key.
  struct Decision {
    u64 cand = 0;
    u64 del = 0;
    u32 meta = 0;  // pic | event << 8 | flags << 16
    // Precomputed attribution (the §2.3 pipeline's answers for this tuple).
    u64 pc_key = 0;
    u64 data_key = 0;
    u64 member_key = 0;
    u32 leaf = 0;
    u32 line = 0;
    u8 metric = 0;
    u8 outcome = 0;  // index into outcome_counts_
    bool has_line = false;
    bool has_data = false;
    bool has_member = false;
    bool emit_ea = false;
  };

  /// One unique (callstack handle, leaf) pair with its precomputed
  /// inclusive function ids (deduped, order of first appearance) and
  /// caller->callee edge keys (duplicates kept — recursion adds an edge's
  /// weight once per occurrence) pooled contiguously.
  struct PathInfo {
    u64 off = 0;
    u32 len = 0;
    u32 leaf = 0;
    u32 incl_begin = 0, incl_end = 0;
    u32 edge_begin = 0, edge_end = 0;
  };

  enum : u8 {
    kOutClock = 0,
    kOutValidated,
    kOutBranchTarget,
    kOutNoCandidate,
    kOutUnverifiable,
    kNumOutcomes,
  };

  /// Flush the per-event attribution outcome tallies (paper §2.3 candidate
  /// validation) to obs counters. They are plain integers bumped by
  /// flush() — nothing next to the fold itself — and published once per
  /// fold() call, keeping the per-event hot path free of atomics.
  void publish_outcomes(u64 events_folded) {
    static const obs::Counter c_folded = obs::counter("reduce.events.folded");
    static const std::array<obs::Counter, kNumOutcomes> c_outcome = {
        obs::counter("reduce.attr.clock"),          // clock-profile samples
        obs::counter("reduce.attr.validated"),      // candidate survived validation
        obs::counter("reduce.attr.branch_target"),  // artificial branch-target row
        obs::counter("reduce.attr.no_candidate"),   // no backtracking / no memory op
        obs::counter("reduce.attr.unverifiable"),   // no branch-target info
    };
    c_folded.add(events_folded);
    for (size_t o = 0; o < kNumOutcomes; ++o) {
      if (outcome_counts_[o] != 0) c_outcome[o].add(outcome_counts_[o]);
    }
    outcome_counts_ = {};
  }

  /// One unique (decision tuple ⊗ callstack handle) pair — the fused fast
  /// path's unit of work. The fold loop makes a single hash probe per event
  /// against these and accumulates weight/count into the entry it just
  /// compared, so the per-event cost is one cache line plus the column
  /// loads; decisions and paths are only consulted on a miss. Sized to one
  /// cache line.
  struct FatEntry {
    u64 cand = 0;
    u64 del = 0;
    u64 off = 0;   // callstack handle (arena offset)
    u32 meta = 0;  // pic | event << 8 | flags << 16
    u32 len = 0;   // callstack length
    u32 did = 0;   // decision id
    u32 pid = 0;   // path id
    u64 w = 0;     // weight sum, consumed by flush()
    u64 n = 0;     // event count, consumed by flush()
    // Replayed answers copied from the decision so the hot loop never
    // touches decs_.
    u8 metric = 0;
    u8 outcome = 0;
    bool emit_ea = false;
  };

  u32 decision_id(u64 cand, u64 del, u32 meta) {
    u64 h = mix_u64(cand ^ mix_u64(del ^ (u64{meta} * 0x9e3779b97f4a7c15ULL)));
    for (;;) {
      u32& slot = dec_slots_[h];
      if (slot == 0) {
        const u32 id = classify(cand, del, meta);
        slot = id + 1;
        return id;
      }
      const Decision& d = decs_[slot - 1];
      if (d.cand == cand && d.del == del && d.meta == meta) return slot - 1;
      h = mix_u64(h + 0x9e3779b97f4a7c15ULL);
    }
  }

  /// The slow path: run the full §2.3 attribution pipeline for one tuple.
  /// Mirrors baseline_fold branch for branch; the dense fold then
  /// replays the cached answers for every event sharing the tuple.
  u32 classify(u64 cand, u64 del, u32 meta) {
    Decision d;
    d.cand = cand;
    d.del = del;
    d.meta = meta;
    const u8 pic = static_cast<u8>(meta & 0xff);
    const u8 flags = static_cast<u8>((meta >> 16) & 0xff);
    const bool has_candidate = (flags & experiment::EventStore::kHasCandidate) != 0;
    const bool has_ea = (flags & experiment::EventStore::kHasEa) != 0;

    auto set_code = [&](u64 pc, bool artificial) {
      d.pc_key = pc_key(pc, artificial);
      d.leaf = func_id_for(*st_, pc, unknown_id_);
      if (auto line = st_->line_for(pc)) {
        d.line = *line;
        d.has_line = true;
      }
    };
    auto set_data = [&](u8 cat, u32 sid) {
      d.data_key = data_key(cat, sid);
      d.has_data = true;
    };

    if (pic == machine::kClockPic) {
      d.metric = static_cast<u8>(kUserCpuMetric);
      d.outcome = kOutClock;
      set_code(del, false);
    } else {
      d.metric = static_cast<u8>((meta >> 8) & 0xff);
      const bool backtracked = pic < machine::kNumPics && backtrack_by_event_[d.metric];
      if (!backtracked || !has_candidate) {
        d.outcome = kOutNoCandidate;
        set_code(del, false);
        set_data(kCatUnresolvable, sym::kInvalidType);
      } else if (!st_->has_branch_targets()) {
        d.outcome = kOutUnverifiable;
        set_code(cand, false);
        set_data(kCatUnverifiable, sym::kInvalidType);
      } else if (auto target = st_->branch_target_in(cand, del)) {
        d.outcome = kOutBranchTarget;
        set_code(*target, true);
        set_data(kCatUnresolvable, sym::kInvalidType);
      } else {
        d.outcome = kOutValidated;
        set_code(cand, false);
        if (!st_->hwcprof()) {
          set_data(kCatUnascertainable, sym::kInvalidType);
        } else if (const sym::MemRef* ref = st_->memref_for(cand); ref == nullptr) {
          set_data(kCatUnspecified, sym::kInvalidType);
        } else {
          switch (ref->kind) {
            case sym::MemRef::Kind::Unidentified:
              set_data(kCatUnidentified, sym::kInvalidType);
              break;
            case sym::MemRef::Kind::Scalar:
              set_data(kCatScalars, sym::kInvalidType);
              break;
            case sym::MemRef::Kind::StructMember:
              set_data(kCatStruct, ref->aggregate);
              d.member_key = member_key(ref->aggregate, ref->member);
              d.has_member = true;
              break;
          }
          d.emit_ea = has_ea;  // the EA sample is kept only when hwcprof
                               // data and a memref are present
        }
      }
    }

    const u32 id = static_cast<u32>(decs_.size());
    decs_.push_back(d);
    dec_w_.push_back(0);
    dec_n_.push_back(0);
    return id;
  }

  u32 path_id(u64 off, u32 len, u32 leaf, const u64* arena) {
    u64 h = mix_u64(off ^ mix_u64((u64{len} << 32) | leaf));
    for (;;) {
      u32& slot = path_slots_[h];
      if (slot == 0) {
        const u32 id = build_path(off, len, leaf, arena);
        slot = id + 1;
        return id;
      }
      const PathInfo& p = paths_[slot - 1];
      if (p.off == off && p.len == len && p.leaf == leaf) return slot - 1;
      h = mix_u64(h + 0x9e3779b97f4a7c15ULL);
    }
  }

  /// Fat-tuple hash: one mix over independently-multiplied fields. Short
  /// dependency chain; quality only affects probe length (entries are
  /// verified by field compare, never by hash).
  static u64 fat_hash(u64 cand, u64 del, u64 off, u32 meta, u32 len) {
    return mix_u64(cand ^ (del * 0x9e3779b97f4a7c15ULL) ^ (off * 0xff51afd7ed558ccdULL) ^
                   (((u64{meta} << 32) | len) * 0xc4ceb9fe1a85ec53ULL));
  }

  /// Rebuild the fat slot array at `cap` slots (power of two) and reinsert
  /// every live entry. Slots hold fat id + 1 (0 = empty) with linear
  /// probing; the entries themselves are the keys, so a lookup is one slot
  /// load plus one entry line.
  void fat_rehash(size_t cap) {
    fat_slots_.assign(cap, 0);
    fat_mask_ = cap - 1;
    for (size_t id = 0; id < fats_.size(); ++id) {
      const FatEntry& e = fats_[id];
      size_t s = fat_hash(e.cand, e.del, e.off, e.meta, e.len) & fat_mask_;
      while (fat_slots_[s] != 0) s = (s + 1) & fat_mask_;
      fat_slots_[s] = static_cast<u32>(id + 1);
    }
  }

  /// Out-of-line probe: walk the table from scratch against its current
  /// state, creating the entry on an empty slot. The fast path only calls
  /// this when its prefetched snapshot missed or went stale (an insert or
  /// rehash earlier in the same chunk), so re-probing is always correct
  /// and duplicates are impossible.
  u32 probe_slow(u64 h, u64 c, u64 dl, u64 off, u32 meta, u32 len, const u64* arena) {
    size_t s = h & fat_mask_;
    for (;;) {
      const u32 slot = fat_slots_[s];
      if (slot == 0) {
        const u32 fid = make_fat(c, dl, off, meta, len, arena);
        if (fats_.size() * 2 > fat_slots_.size()) {
          fat_rehash(fat_slots_.size() * 2);  // reinserts the new entry too
        } else {
          fat_slots_[s] = fid + 1;
        }
        return fid;
      }
      const FatEntry& e = fats_[slot - 1];
      if (e.cand == c && e.del == dl && e.off == off && e.meta == meta && e.len == len) {
        return slot - 1;
      }
      s = (s + 1) & fat_mask_;
    }
  }

  /// Fat-cache miss: resolve (or create) the decision and path for this
  /// tuple and snapshot the per-event answers into a new entry.
  u32 make_fat(u64 cand, u64 del, u64 off, u32 meta, u32 len, const u64* arena) {
    FatEntry e;
    e.cand = cand;
    e.del = del;
    e.off = off;
    e.meta = meta;
    e.len = len;
    e.did = decision_id(cand, del, meta);
    const Decision& d = decs_[e.did];
    e.pid = path_id(off, len, d.leaf, arena);
    e.metric = d.metric;
    e.outcome = d.outcome;
    e.emit_ea = d.emit_ea;
    const u32 id = static_cast<u32>(fats_.size());
    fats_.push_back(e);
    return id;
  }

  u32 build_path(u64 off, u32 len, u32 leaf, const u64* arena) {
    PathInfo p;
    p.off = off;
    p.len = len;
    p.leaf = leaf;
    frames_.clear();
    for (u32 j = 0; j < len; ++j) {
      frames_.push_back(func_id_for(*st_, arena[off + j], unknown_id_));
    }
    frames_.push_back(leaf);

    p.incl_begin = static_cast<u32>(incl_pool_.size());
    for (size_t i = 0; i < frames_.size(); ++i) {
      bool dup = false;
      for (size_t j = 0; j < i; ++j) dup |= frames_[j] == frames_[i];
      if (!dup) incl_pool_.push_back(frames_[i]);
    }
    p.incl_end = static_cast<u32>(incl_pool_.size());

    p.edge_begin = static_cast<u32>(edge_pool_.size());
    for (size_t i = 0; i + 1 < frames_.size(); ++i) {
      edge_pool_.push_back(edge_key(frames_[i], frames_[i + 1]));
    }
    p.edge_end = static_cast<u32>(edge_pool_.size());

    const u32 id = static_cast<u32>(paths_.size());
    paths_.push_back(p);
    path_mc_.push_back(MetricCounts{});
    return id;
  }

  /// Expand the dense accumulators into the hash-keyed result and zero them.
  void flush(ReductionResult& r) {
    // First expand the fat entries into the decision/path accumulators —
    // pure u64 sums, so the result is identical to per-event accumulation.
    for (const FatEntry& e : fats_) {
      if (dec_n_[e.did] == 0) touched_decs_.push_back(e.did);
      dec_n_[e.did] += e.n;
      dec_w_[e.did] += e.w;
      outcome_counts_[e.outcome] += e.n;
      r.sample_counts[e.metric] += e.n;
      path_mc_[e.pid][e.metric] += e.w;
    }
    for (const u32 id : touched_decs_) {
      const Decision& d = decs_[id];
      const u64 w = dec_w_[id];
      r.present[d.metric] = true;
      r.total[d.metric] += w;
      r.pc[d.pc_key][d.metric] += w;
      r.func[d.leaf][d.metric] += w;
      if (d.has_line) r.line[d.line][d.metric] += w;
      if (d.has_data) {
        r.data[d.data_key][d.metric] += w;
        r.data_total[d.metric] += w;
      }
      if (d.has_member) r.member[d.member_key][d.metric] += w;
      dec_w_[id] = 0;
      dec_n_[id] = 0;
    }
    touched_decs_.clear();
    // The path cache is per fold call, so every path is live.
    for (size_t p = 0; p < paths_.size(); ++p) {
      const MetricCounts& mc = path_mc_[p];
      const PathInfo& pi = paths_[p];
      for (u32 i = pi.incl_begin; i < pi.incl_end; ++i) {
        MetricCounts& c = r.incl[incl_pool_[i]];
        for (size_t m = 0; m < kNumMetrics; ++m) c[m] += mc[m];
      }
      for (u32 i = pi.edge_begin; i < pi.edge_end; ++i) {
        MetricCounts& c = r.edge[edge_pool_[i]];
        for (size_t m = 0; m < kNumMetrics; ++m) c[m] += mc[m];
      }
    }
  }

  const sym::SymbolTable* st_;
  BacktrackFlags backtrack_by_event_;
  u32 unknown_id_;

  // Decision cache: lives as long as the folder.
  FlatHashU64Map<u32> dec_slots_;  // hashed tuple -> id + 1
  std::vector<Decision> decs_;
  std::vector<u64> dec_w_;  // dense weight sums, zeroed by flush()
  std::vector<u64> dec_n_;  // dense event counts, zeroed by flush()
  std::vector<u32> touched_decs_;

  // Path cache: lives for one fold() call (handles are store-relative).
  FlatHashU64Map<u32> path_slots_;
  std::vector<PathInfo> paths_;
  std::vector<u32> incl_pool_;
  std::vector<u64> edge_pool_;
  std::vector<MetricCounts> path_mc_;

  // Fat cache: one entry per unique (decision, callstack) pair, also
  // per-fold (it embeds store-relative path ids and callstack handles).
  // The slot array is managed directly (see fat_rehash) — kept at most
  // half full so the expected probe is a single slot load.
  std::vector<u32> fat_slots_;
  size_t fat_mask_ = 0;
  std::vector<FatEntry> fats_;

  std::vector<u32> frames_;  // scratch for build_path
  std::array<u64, kNumOutcomes> outcome_counts_{};
};

void RadixFolder::fold(ReductionResult& r, const experiment::EventStore& ev, size_t begin,
                       size_t end) {
  // Fresh path cache per call: callstack handles only identify stacks
  // within one store, and callers may pass a different store each call.
  path_slots_.clear();
  paths_.clear();
  incl_pool_.clear();
  edge_pool_.clear();
  path_mc_.clear();
  fats_.clear();
  fat_rehash(1024);

  // Hoisted SoA column pointers — the fold loop touches nothing else.
  const u8* pic = ev.pic_col().data();
  const u8* event = ev.event_col().data();
  const u8* flags = ev.flags_col().data();
  const u64* weight = ev.weight_col().data();
  const u64* del = ev.delivered_pc_col().data();
  const u64* cand = ev.candidate_pc_col().data();
  const u64* ea = ev.ea_col().data();
  const u64* cs_off = ev.cs_offset_col().data();
  const u32* cs_len = ev.cs_len_col().data();
  const u64* arena = ev.arena().data();

  // Fused fold: one probe against the fat cache per event, accumulating
  // weight and count into the entry the probe just compared. Decision
  // classification and path construction only run on a fat miss — and a
  // tuple's first event is always a fat miss, so decisions and paths are
  // created in exactly the order a per-event partition would create them.
  //
  // The loop is software-pipelined in chunks: stage A computes hashes and
  // prefetches the slot lines, stage B reads the slots and prefetches the
  // entry lines, stage C verifies and accumulates. The two dependent
  // random loads per event thus overlap across the whole chunk instead of
  // serializing per event. Stage C's inserts can invalidate the snapshots
  // taken by stage B for later events in the same chunk — any snapshot
  // that is empty or fails the field compare falls back to probe_slow,
  // which re-walks the current table, so stale snapshots cost time, never
  // correctness (a nonzero snapshot that passes the compare is right by
  // construction: ids are stable and entries are immutable keys).
  constexpr size_t kChunk = 256;
  u64 h_arr[kChunk];
  u32 slot_arr[kChunk];
  for (size_t c0 = begin; c0 < end; c0 += kChunk) {
    const size_t cn = std::min(end - c0, kChunk);
    for (size_t j = 0; j < cn; ++j) {
      const size_t i = c0 + j;
      const u32 meta = u32{pic[i]} | (u32{event[i]} << 8) | (u32{flags[i]} << 16);
      const u64 h = fat_hash(cand[i], del[i], cs_off[i], meta, cs_len[i]);
      h_arr[j] = h;
      __builtin_prefetch(&fat_slots_[h & fat_mask_]);
    }
    for (size_t j = 0; j < cn; ++j) {
      const u32 slot = fat_slots_[h_arr[j] & fat_mask_];
      slot_arr[j] = slot;
      if (slot != 0) __builtin_prefetch(&fats_[slot - 1]);
    }
    for (size_t j = 0; j < cn; ++j) {
      const size_t i = c0 + j;
      const u32 meta = u32{pic[i]} | (u32{event[i]} << 8) | (u32{flags[i]} << 16);
      const u64 c = cand[i], dl = del[i], off = cs_off[i];
      const u32 len = cs_len[i];
      u32 fid;
      const u32 slot = slot_arr[j];
      if (slot != 0) {
        const FatEntry& e = fats_[slot - 1];
        fid = (e.cand == c && e.del == dl && e.off == off && e.meta == meta && e.len == len)
                  ? slot - 1
                  : probe_slow(h_arr[j], c, dl, off, meta, len, arena);
      } else {
        fid = probe_slow(h_arr[j], c, dl, off, meta, len, arena);
      }
      FatEntry& e = fats_[fid];
      const u64 w = weight[i];
      e.w += w;
      e.n += 1;
      if (e.emit_ea) r.ea_samples.push_back({ea[i], e.metric, static_cast<double>(w)});
    }
  }

  flush(r);
  publish_outcomes(end - begin);
}

namespace {

/// The radix engine over shards: events split into contiguous shards, one
/// thread per shard, each experiment segment of a shard folded by its own
/// IncrementalReducer (decisions depend on the experiment's symbols and
/// backtrack flags). The segment results merge in event order through
/// merge_results. With no events at all, one empty fold still yields the
/// result's func_names.
ReductionResult reduce_radix(const std::vector<const Experiment*>& exps, unsigned threads) {
  std::vector<size_t> prefix{0};
  for (const auto* ex : exps) prefix.push_back(prefix.back() + ex->events.size());
  const size_t n = prefix.back();

  const size_t min_shard = 4096;
  size_t nshards = threads;
  if (nshards > 1 && n / nshards < min_shard) nshards = std::max<size_t>(1, n / min_shard);

  static const obs::SpanName kShardSpan = obs::span_name("reduce.shard");
  std::vector<std::vector<ReductionResult>> segments(nshards);
  auto work = [&](size_t s) {
    const obs::ScopedSpan span(kShardSpan);
    const size_t lo = n * s / nshards;
    const size_t hi = n * (s + 1) / nshards;
    size_t e = 0;
    for (size_t g = lo;;) {
      // Skip experiments that end at or before g (empty ones included).
      while (e + 1 < exps.size() && prefix[e + 1] <= g) ++e;
      const Experiment& ex = *exps[e];
      const size_t seg_end = std::min(hi, prefix[e + 1]);
      IncrementalReducer red(ex.image.symtab, ex.counters);
      red.fold(ex.events, g - prefix[e], seg_end - prefix[e]);
      segments[s].push_back(std::move(red).release());
      g = seg_end;
      if (g >= hi) break;
    }
  };

  if (nshards <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nshards);
    for (size_t s = 0; s < nshards; ++s) pool.emplace_back(work, s);
    for (auto& t : pool) t.join();
  }

  static const obs::Histogram kMergeNs = obs::histogram("reduce.merge_ns");
  const obs::ScopedTimer merge_timer(kMergeNs);
  std::vector<const ReductionResult*> parts;
  for (const auto& shard : segments) {
    for (const auto& r : shard) parts.push_back(&r);
  }
  return merge_results(parts);
}

}  // namespace

unsigned Reduction::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("DSPROF_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    DSP_CHECK(end != env && *end == '\0' && v >= 1 && v <= 1024,
              std::string("bad DSPROF_THREADS value: '") + env +
                  "' (expected an integer in [1, 1024])");
    return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ReductionResult Reduction::run(const std::vector<const Experiment*>& exps, unsigned threads,
                               Engine engine) {
  DSP_CHECK(!exps.empty(), "no experiments to analyze");
  return engine == Engine::Baseline ? reduce_baseline(exps)
                                    : reduce_radix(exps, resolve_threads(threads));
}

ReductionResult merge_results(const std::vector<const ReductionResult*>& parts) {
  DSP_CHECK(!parts.empty(), "no reductions to merge");
  ReductionResult r;
  // func_names are derived from the symbol table alone, so agreement is the
  // same-binary check Analysis makes on experiments, applied to results.
  for (const auto* p : parts) {
    if (r.func_names.empty()) r.func_names = p->func_names;
    DSP_CHECK(p->func_names.empty() || p->func_names == r.func_names,
              "merged reductions must come from the same binary");
  }
  size_t ea_samples = 0;
  for (const auto* p : parts) ea_samples += p->ea_samples.size();
  r.ea_samples.reserve(ea_samples);
  for (const auto* p : parts) {
    for (size_t m = 0; m < kNumMetrics; ++m) {
      r.present[m] = r.present[m] || p->present[m];
      r.total[m] += p->total[m];
      r.data_total[m] += p->data_total[m];
      r.sample_counts[m] += p->sample_counts[m];
    }
    merge_map(r.pc, p->pc);
    merge_map(r.func, p->func);
    merge_map(r.incl, p->incl);
    merge_map(r.edge, p->edge);
    merge_map(r.line, p->line);
    merge_map(r.data, p->data);
    merge_map(r.member, p->member);
    r.ea_samples.insert(r.ea_samples.end(), p->ea_samples.begin(), p->ea_samples.end());
    r.events_reduced += p->events_reduced;
  }
  return r;
}

// ---------------------------------------------------------------------------
// IncrementalReducer — the dsprofd online path.

IncrementalReducer::IncrementalReducer(const sym::SymbolTable& symtab,
                                       const std::vector<experiment::CounterSpec>& counters)
    : folder_(std::make_unique<RadixFolder>(symtab, backtrack_flags(counters))) {
  // One folder for the reducer's lifetime: the symbol table and backtrack
  // flags are fixed, so the decision cache warms across batches.
  r_.func_names = func_names_of(symtab);
}

IncrementalReducer::~IncrementalReducer() = default;
IncrementalReducer::IncrementalReducer(IncrementalReducer&&) noexcept = default;
IncrementalReducer& IncrementalReducer::operator=(IncrementalReducer&&) noexcept = default;

void IncrementalReducer::fold(const experiment::EventStore& events, size_t begin,
                              size_t end) {
  DSP_CHECK(begin <= end && end <= events.size(), "fold range outside event store");
  static const obs::Histogram kFoldNs = obs::histogram("reduce.fold_ns");
  const obs::ScopedTimer timer(kFoldNs);
  folder_->fold(r_, events, begin, end);
  r_.events_reduced += end - begin;
}

}  // namespace dsprof::analyze
