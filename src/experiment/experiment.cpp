#include "experiment/experiment.hpp"

#include <filesystem>

#include "obs/obs.hpp"
#include "support/mmap_file.hpp"

namespace dsprof::experiment {

namespace {

constexpr u32 kMagic = 0x44535047;     // 'DSPG' — aligned columnar, mmap-able
constexpr u32 kMagicMpx = 0x4453504A;  // 'DSPJ' — plus counter-set ids and a slice table

void put_header(ByteWriter& w, const Experiment& ex, bool mpx) {
  put_counter_specs(w, ex.counters, mpx);
  w.put_u64(ex.clock_interval);
  w.put_u64(ex.clock_hz);
  w.put_u64(ex.page_size);
  w.put_u64(ex.ec_line_size);
  w.put_u64(ex.total_cycles);
  w.put_u64(ex.total_instructions);
  if (mpx) {
    // Slice table: per-set live cycles + switch counts.
    w.put_u32(static_cast<u32>(ex.slices.size()));
    for (const auto& s : ex.slices) {
      w.put_u64(s.live_cycles);
      w.put_u64(s.switches);
    }
  }
}

void get_header(ByteReader& r, Experiment& ex, bool mpx) {
  ex.counters = get_counter_specs(r, mpx);
  ex.clock_interval = r.get_u64();
  ex.clock_hz = r.get_u64();
  ex.page_size = r.get_u64();
  ex.ec_line_size = r.get_u64();
  ex.total_cycles = r.get_u64();
  ex.total_instructions = r.get_u64();
  if (mpx) {
    const u32 ns = r.get_u32();
    // Sets partition the counters, so there can never be more sets than
    // counters were recorded.
    const size_t nc = ex.counters.size();
    DSP_CHECK(ns <= nc, "implausible slice-table set count " + std::to_string(ns) +
                            " in header (only " + std::to_string(nc) + " counters)");
    for (u32 i = 0; i < ns; ++i) {
      SliceInfo s;
      s.live_cycles = r.get_u64();
      s.switches = r.get_u64();
      ex.slices.push_back(s);
    }
    for (const auto& c : ex.counters) {
      DSP_CHECK(c.set < ex.slices.size(),
                "counter set id " + std::to_string(c.set) + " outside the " +
                    std::to_string(ex.slices.size()) + "-entry slice table");
    }
  }
}

// Allocations (address, size, site PC — the site lets reports name
// instances). The simulator's ground-truth log (Experiment::truth) is not
// written: a real collect cannot record it, and no analysis reads it.
constexpr size_t kAllocRecordBytes = 3 * sizeof(u64);

void put_trailer(ByteWriter& w, const Experiment& ex) {
  w.put_u32(static_cast<u32>(ex.allocations.size()));
  for (const auto& a : ex.allocations) {
    w.put_u64(a.addr);
    w.put_u64(a.size);
    w.put_u64(a.site_pc);
  }
}

void get_trailer(ByteReader& r, Experiment& ex) {
  const u32 na = r.get_u32();
  // Bound the count by the bytes present before it drives allocation.
  DSP_CHECK(na <= r.remaining() / kAllocRecordBytes,
            "implausible allocation count " + std::to_string(na) + " (only " +
                std::to_string(r.remaining()) + " trailer bytes)");
  ex.allocations.reserve(na);
  for (u32 i = 0; i < na; ++i) {
    machine::AllocRecord a;
    a.addr = r.get_u64();
    a.size = r.get_u64();
    a.site_pc = r.get_u64();
    ex.allocations.push_back(a);
  }
}

}  // namespace

void put_counter_specs(ByteWriter& w, const std::vector<CounterSpec>& specs, bool with_set) {
  w.put_u32(static_cast<u32>(specs.size()));
  for (const auto& c : specs) {
    w.put_u8(static_cast<u8>(c.event));
    w.put_u64(c.interval);
    w.put_u8(c.backtrack ? 1 : 0);
    w.put_u8(static_cast<u8>(c.pic));
    if (with_set) w.put_u8(static_cast<u8>(c.set));
  }
}

std::vector<CounterSpec> get_counter_specs(ByteReader& r, bool with_set) {
  const u32 nc = r.get_u32();
  // Without sets a run records at most one counter per PIC register; a
  // multiplexed run at most one per event type. A larger count means the
  // bytes are corrupt (and must not drive allocation).
  const u32 max_counters = with_set ? static_cast<u32>(machine::kNumHwEvents) : machine::kNumPics;
  DSP_CHECK(nc <= max_counters, "implausible counter count " + std::to_string(nc));
  std::vector<CounterSpec> specs(nc);
  for (auto& c : specs) {
    const u8 event = r.get_u8();
    // Analysis and the reduction index per-event arrays by this byte.
    DSP_CHECK(event < machine::kNumHwEvents,
              "counter spec names hardware event id " + std::to_string(event) + " (only " +
                  std::to_string(machine::kNumHwEvents) + " exist)");
    c.event = static_cast<machine::HwEvent>(event);
    c.interval = r.get_u64();
    c.backtrack = r.get_u8() != 0;
    c.pic = r.get_u8();
    if (with_set) c.set = r.get_u8();
  }
  return specs;
}

void Experiment::save(const std::string& dir) const {
  static const obs::Histogram kSaveNs = obs::histogram("experiment.save_ns");
  const obs::ScopedTimer timer(kSaveNs);
  std::filesystem::create_directories(dir);

  write_file(dir + "/log.txt", std::vector<u8>(log.begin(), log.end()));

  ByteWriter lo;
  image.serialize(lo);
  write_file(dir + "/loadobjects.bin", lo.bytes());

  // Only a populated slice table switches to the "DSPJ" sibling that
  // carries set ids and the slice table.
  const bool mpx = !slices.empty();
  ByteWriter w;
  w.put_u32(mpx ? kMagicMpx : kMagic);
  put_header(w, *this, mpx);
  events.serialize_aligned(w, mpx);
  put_trailer(w, *this);
  write_file(dir + "/events.bin", w.bytes());
}

Experiment Experiment::load(const std::string& dir) {
  static const obs::Histogram kLoadNs = obs::histogram("experiment.load_ns");
  static const obs::Counter kBytesLoaded = obs::counter("experiment.bytes_loaded");
  const obs::ScopedTimer timer(kLoadNs);
  Experiment ex;

  const auto logbytes = read_file(dir + "/log.txt");
  ex.log.assign(logbytes.begin(), logbytes.end());
  u64 bytes = logbytes.size();

  // Every structural problem in either binary file — truncation, corrupt
  // counts, out-of-range handles or event ids — surfaces as an Error naming
  // the file and directory, never as undefined behaviour or an
  // uncontextualized check.
  try {
    const auto lobytes = read_file(dir + "/loadobjects.bin");
    bytes += lobytes.size();
    ByteReader lr(lobytes);
    ex.image = sym::Image::deserialize(lr);
  } catch (const Error& e) {
    fail("corrupt experiment loadobjects.bin in '" + dir + "': " + e.what());
  }

  try {
    // The EventStore keeps the mapping alive and reads its columns straight
    // out of it.
    const auto mf = MappedFile::open(dir + "/events.bin");
    bytes += mf->size();
    ByteReader r(mf->data(), mf->size());
    const u32 magic = r.get_u32();
    DSP_CHECK(magic == kMagic || magic == kMagicMpx,
              "bad events.bin magic (expected DSPG or multiplexed DSPJ)");
    const bool mpx = magic == kMagicMpx;
    get_header(r, ex, mpx);
    ex.events = EventStore::deserialize_aligned(r, mf, mpx);
    get_trailer(r, ex);
    DSP_CHECK(r.at_end(), std::to_string(r.remaining()) + " trailing byte(s) after trailer");
  } catch (const Error& e) {
    fail("corrupt experiment events.bin in '" + dir + "': " + e.what());
  }
  kBytesLoaded.add(bytes);
  return ex;
}

}  // namespace dsprof::experiment
