// The experiment: result of a `collect` run (paper §2.2) — a directory with
// a log, the loadobjects description (the executable image + symbol tables),
// and the recorded profile events. We keep experiments primarily in memory;
// save()/load() provide the on-disk directory form.
//
// Events are held in a columnar EventStore (event_store.hpp): one column per
// field, callstacks interned into a shared arena. The on-disk events.bin is
// the aligned columnar "DSPG" layout: every column payload is 8-byte
// aligned, so load() maps the file and hands out zero-copy column views
// (MappedFile reads the file into a buffer on hosts that cannot map it).
// A trailer after the columns lists the heap allocations.
//
// Multiplexed runs (more counters than PIC registers, rotated across time
// slices) save under the sibling magic "DSPJ", which extends the layout
// with a per-counter set id, a per-event set column, and a slice table
// (set -> live cycles, switches). A run that does not multiplex writes
// "DSPG", and loading a "DSPG" file yields one always-live set.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "experiment/event_store.hpp"
#include "machine/counters.hpp"
#include "sym/image.hpp"

namespace dsprof::experiment {

/// One requested hardware counter, e.g. "+ecstall,on":
/// leading '+' requests apropos backtracking (paper §2.2.3).
struct CounterSpec {
  machine::HwEvent event = machine::HwEvent::Cycle_cnt;
  u64 interval = 0;   // overflow interval (prime)
  bool backtrack = false;
  unsigned pic = 0;   // assigned counter register (within the set)
  unsigned set = 0;   // multiplexed counter set (0 when not multiplexing)
};

/// Per-set live-time accounting for a multiplexed run: how many cycles the
/// set's counters were actually armed, and how often the scheduler switched
/// to it. The renormalizing reduction scales a set's aggregates by
/// total_cycles / live_cycles to estimate the full-run counts.
struct SliceInfo {
  u64 live_cycles = 0;
  u64 switches = 0;
};

/// The counter-spec list codec shared by the events.bin header and the
/// dsprofd Hello frame: a u32 count, then per spec the event byte, interval,
/// backtrack flag, PIC register and (with_set) the counter-set id. The
/// decoder rejects, with a structured Error, a count above what one run can
/// record (one spec per PIC register, or per event type when multiplexed)
/// before reading any spec, and every event byte that names no hardware
/// event.
void put_counter_specs(ByteWriter& w, const std::vector<CounterSpec>& specs, bool with_set);
std::vector<CounterSpec> get_counter_specs(ByteReader& r, bool with_set);

struct Experiment {
  std::string log;  // human-readable collection log
  sym::Image image;
  std::vector<CounterSpec> counters;
  u64 clock_interval = 0;  // cycles between clock-profile samples (0 = off)
  u64 clock_hz = 900'000'000;
  u64 page_size = 8 * 1024;
  u64 ec_line_size = 512;

  EventStore events;
  /// Heap allocations in order — for the instance view. `site_pc` names the
  /// allocation call site.
  std::vector<machine::AllocRecord> allocations;

  /// Slice table of a multiplexed run, indexed by counter set. Empty means
  /// the run did not multiplex: one set, live for all of total_cycles —
  /// exactly what a "DSPG" file loads as, so the renormalizing reduction
  /// scales by 1.0 bit-identically.
  std::vector<SliceInfo> slices;

  bool multiplexed() const { return slices.size() > 1; }

  // Run totals (from the run, not estimated from samples).
  u64 total_cycles = 0;
  u64 total_instructions = 0;

  /// Ground truth per overflow event, recorded by the simulator for
  /// validation benches/tests only — the analyzer must not consult it.
  /// In memory only: Collector::run fills it, save() does not write it
  /// (real hardware cannot record it), so a loaded experiment has none.
  std::vector<machine::TruthRecord> truth;

  double seconds(u64 cycles) const {
    return static_cast<double>(cycles) / static_cast<double>(clock_hz);
  }

  /// Write the experiment directory (log.txt, loadobjects.bin, events.bin).
  /// Records its wall time in the obs histogram experiment.save_ns.
  void save(const std::string& dir) const;
  /// Read an experiment directory. The events are a zero-copy view into the
  /// mapped events.bin (read-only: EventStore::is_mapped()). Records its
  /// wall time in experiment.load_ns and the three files' sizes in the
  /// experiment.bytes_loaded counter.
  static Experiment load(const std::string& dir);
};

}  // namespace dsprof::experiment
