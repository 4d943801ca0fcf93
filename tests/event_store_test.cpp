// Columnar EventStore: callstack-arena interning, save/load round trips of
// the zero-copy DSPG/DSPJ layouts, corruption hardening of every decode
// path, and bit-identical determinism of the radix reduction engine against
// the seed-equivalent Baseline oracle across thread counts, random stores,
// and mapped-vs-streamed decodes.
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "experiment/experiment.hpp"
#include "obs/obs.hpp"
#include "scc/compile.hpp"
#include "support/bytestream.hpp"
#include "support/mmap_file.hpp"
#include "temp_dir.hpp"

namespace dsprof::experiment {
namespace {

using machine::HwEvent;

EventStore make_store(const std::vector<std::vector<u64>>& stacks) {
  EventStore s;
  u64 seq = 0;
  for (const auto& cs : stacks) {
    s.append(/*pic=*/0, HwEvent::EC_rd_miss, /*weight=*/1009, /*delivered_pc=*/0x1000 + seq,
             /*has_candidate=*/true, /*candidate_pc=*/0x0ff0 + seq, /*has_ea=*/true,
             /*ea=*/0x8000 + 8 * seq, cs.data(), cs.size(), seq);
    ++seq;
  }
  return s;
}

TEST(EventStoreInterning, IdenticalStacksShareOneArenaRange) {
  const std::vector<u64> hot = {0x100, 0x200, 0x300};
  EventStore s = make_store({hot, hot, hot, hot});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.unique_callstacks(), 1u);
  EXPECT_EQ(s.arena_words(), hot.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_TRUE(s.callstack(i) == hot);
    // All four events address the very same arena words.
    EXPECT_EQ(s.callstack(i).ptr, s.callstack(0).ptr);
  }
}

TEST(EventStoreInterning, DistinctStacksGetDistinctRanges) {
  const std::vector<u64> a = {0x100, 0x200};
  const std::vector<u64> b = {0x100, 0x201};     // same length, different words
  const std::vector<u64> c = {0x100};            // prefix of a
  const std::vector<u64> d = {0x100, 0x200, 1};  // extension of a
  EventStore s = make_store({a, b, c, d, a, b});
  EXPECT_EQ(s.unique_callstacks(), 4u);
  EXPECT_EQ(s.arena_words(), a.size() + b.size() + c.size() + d.size());
  EXPECT_TRUE(s.callstack(0) == a);
  EXPECT_TRUE(s.callstack(1) == b);
  EXPECT_TRUE(s.callstack(2) == c);
  EXPECT_TRUE(s.callstack(3) == d);
  EXPECT_EQ(s.callstack(4).ptr, s.callstack(0).ptr);
  EXPECT_EQ(s.callstack(5).ptr, s.callstack(1).ptr);
}

TEST(EventStoreInterning, EmptyCallstacksCostNoArena) {
  EventStore s = make_store({{}, {0x1}, {}});
  EXPECT_EQ(s.unique_callstacks(), 2u);  // the empty stack plus {0x1}
  EXPECT_EQ(s.arena_words(), 1u);
  EXPECT_TRUE(s.callstack(0).empty());
  EXPECT_TRUE(s.callstack(2).empty());
}

TEST(EventStoreBulk, AppendRangePreservesEveryFieldAndReinterns) {
  const std::vector<u64> a = {0x100, 0x200};
  const std::vector<u64> b = {0x300};
  EventStore src = make_store({a, b, a, {}, b, a});

  EventStore dst;
  dst.append_range(src, 1, 5);  // b, a, {}, b
  ASSERT_EQ(dst.size(), 4u);
  for (size_t i = 0; i < dst.size(); ++i) {
    const EventView e = src[i + 1];
    const EventView d = dst[i];
    EXPECT_EQ(d.pic, e.pic);
    EXPECT_EQ(d.event, e.event);
    EXPECT_EQ(d.weight, e.weight);
    EXPECT_EQ(d.delivered_pc, e.delivered_pc);
    EXPECT_EQ(d.has_candidate, e.has_candidate);
    EXPECT_EQ(d.candidate_pc, e.candidate_pc);
    EXPECT_EQ(d.has_ea, e.has_ea);
    EXPECT_EQ(d.ea, e.ea);
    EXPECT_TRUE(d.callstack == e.callstack.to_vector());
    EXPECT_EQ(d.seq, e.seq);
  }
  // The destination arena is rebuilt by re-interning, not copied wholesale:
  // only the stacks that actually occur in the range are stored, once each.
  EXPECT_EQ(dst.unique_callstacks(), 3u);  // a, b, and the empty stack
  EXPECT_EQ(dst.arena_words(), a.size() + b.size());

  // append_store == append_range over the whole source.
  EventStore whole;
  whole.append_store(src);
  whole.append_store(src);
  ASSERT_EQ(whole.size(), 2 * src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(whole[i].seq, src[i].seq);
    EXPECT_EQ(whole[src.size() + i].delivered_pc, src[i].delivered_pc);
    EXPECT_TRUE(whole[src.size() + i].callstack == src[i].callstack.to_vector());
  }
  EXPECT_EQ(whole.unique_callstacks(), src.unique_callstacks());
  EXPECT_EQ(whole.arena_words(), src.arena_words());

  // Out-of-range and inverted ranges are rejected, as is appending from self.
  EXPECT_THROW(dst.append_range(src, 4, 3), Error);
  EXPECT_THROW(dst.append_range(src, 0, src.size() + 1), Error);
  EXPECT_THROW(dst.append_range(dst, 0, dst.size()), Error);
}

TEST(EventStore, ViewsMaterializeEveryField) {
  EventStore s;
  s.append(machine::kClockPic, HwEvent::Cycle_cnt, 900'001, 0xabc, false, 0, false, 0,
           nullptr, 0, 7);
  const std::vector<u64> cs = {0x42};
  s.append(1, HwEvent::DTLB_miss, 499, 0xdef, true, 0xdd0, true, 0xbeef, cs.data(),
           cs.size(), 8);
  const EventView v0 = s[0];
  EXPECT_EQ(v0.pic, machine::kClockPic);
  EXPECT_EQ(v0.event, HwEvent::Cycle_cnt);
  EXPECT_EQ(v0.weight, 900'001u);
  EXPECT_EQ(v0.delivered_pc, 0xabcu);
  EXPECT_FALSE(v0.has_candidate);
  EXPECT_FALSE(v0.has_ea);
  EXPECT_TRUE(v0.callstack.empty());
  EXPECT_EQ(v0.seq, 7u);
  const EventView v1 = s[1];
  EXPECT_EQ(v1.pic, 1u);
  EXPECT_EQ(v1.event, HwEvent::DTLB_miss);
  EXPECT_TRUE(v1.has_candidate);
  EXPECT_EQ(v1.candidate_pc, 0xdd0u);
  EXPECT_TRUE(v1.has_ea);
  EXPECT_EQ(v1.ea, 0xbeefu);
  EXPECT_TRUE(v1.callstack == cs);
  // Iteration yields the same views.
  size_t n = 0;
  for (const auto& e : s) {
    EXPECT_EQ(e.seq, 7u + n);
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

/// Decode aligned store bytes the way dsprofd decodes a frame payload: a
/// zero-copy view kept alive by the shared buffer.
EventStore decode_payload(std::vector<u8> bytes) {
  const auto keep = std::make_shared<const std::vector<u8>>(std::move(bytes));
  ByteReader r(*keep);
  return EventStore::deserialize_aligned(r, keep);
}

TEST(EventStore, SerializeRoundTripPreservesEverything) {
  const std::vector<u64> a = {1, 2, 3}, b = {9};
  EventStore s = make_store({a, b, a, {}, b});
  ByteWriter w;
  s.serialize_aligned(w);
  const EventStore back = decode_payload(w.take());
  ASSERT_TRUE(back.is_mapped());
  ASSERT_EQ(back.size(), s.size());
  EXPECT_EQ(back.unique_callstacks(), s.unique_callstacks());
  EXPECT_EQ(back.arena_words(), s.arena_words());
  for (size_t i = 0; i < s.size(); ++i) {
    const EventView x = s[i], y = back[i];
    EXPECT_EQ(x.pic, y.pic);
    EXPECT_EQ(x.event, y.event);
    EXPECT_EQ(x.weight, y.weight);
    EXPECT_EQ(x.delivered_pc, y.delivered_pc);
    EXPECT_EQ(x.has_candidate, y.has_candidate);
    EXPECT_EQ(x.candidate_pc, y.candidate_pc);
    EXPECT_EQ(x.has_ea, y.has_ea);
    EXPECT_EQ(x.ea, y.ea);
    EXPECT_TRUE(x.callstack == y.callstack);
    EXPECT_EQ(x.seq, y.seq);
  }
  // A decoded store is read-only; copied into a live store it interns
  // again, so appending a known stack reuses it.
  EventStore live;
  live.append_store(back);
  live.append(0, HwEvent::EC_rd_miss, 1, 1, false, 0, false, 0, a.data(), a.size(), 99);
  EXPECT_EQ(live.unique_callstacks(), back.unique_callstacks());
  EXPECT_EQ(live.arena_words(), back.arena_words());
}

TEST(EventStore, TruncatedStreamIsRejected) {
  EventStore s = make_store({{1, 2}, {3}});
  ByteWriter w;
  s.serialize_aligned(w);
  std::vector<u8> bytes = w.take();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_payload(std::move(bytes)), Error);
}

// --- corruption robustness ---------------------------------------------------
// A truncated or corrupt store or experiment directory must surface as an
// Error (naming the offending file, for a directory) — never as UB, an
// OOM-sized allocation, or an uncontextualized bounds failure.

/// Hand-written aligned columns (count, pad to 8, raw bytes — the
/// serialize_aligned layout), so hostile values can be injected.
template <typename T>
void put_aligned_col(ByteWriter& w, const std::vector<T>& col) {
  w.put_u64(col.size());
  w.align_to(8);
  w.put_raw(col.data(), col.size() * sizeof(T));
}

/// One event, every column valid except the callstack handle
/// {cs_offset, cs_len} over a one-word arena.
void write_one_event(ByteWriter& w, u64 cs_offset, u32 cs_len) {
  put_aligned_col<u8>(w, {0});          // pic
  put_aligned_col<u8>(w, {3});          // event
  put_aligned_col<u64>(w, {1});         // weight
  put_aligned_col<u64>(w, {0x1000});    // delivered_pc
  put_aligned_col<u8>(w, {0});          // flags
  put_aligned_col<u64>(w, {0});         // candidate_pc
  put_aligned_col<u64>(w, {0});         // ea
  put_aligned_col<u64>(w, {0});         // seq
  put_aligned_col<u64>(w, {cs_offset});  // cs_offset
  put_aligned_col<u32>(w, {cs_len});    // cs_len
  put_aligned_col<u64>(w, {0xdead});    // arena (1 word)
}

void write_out_of_range_handle(ByteWriter& w) { write_one_event(w, 4, 2); }

// offset + len wraps past 2^64: the overflow-safe form must still reject.
void write_wrapping_handle(ByteWriter& w) { write_one_event(w, ~u64{0}, 8); }

void write_inconsistent_lengths(ByteWriter& w) {
  put_aligned_col<u8>(w, {0, 0});  // pic: two rows
  put_aligned_col<u8>(w, {3});     // every other column: one row
  put_aligned_col<u64>(w, {1});
  put_aligned_col<u64>(w, {0x1000});
  put_aligned_col<u8>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u32>(w, {0});
  put_aligned_col<u64>(w, {});
}

/// The bytes as a wire frame payload (heap buffer).
void expect_payload_rejects(const std::function<void(ByteWriter&)>& write_columns) {
  ByteWriter w;
  write_columns(w);
  EXPECT_THROW(decode_payload(w.take()), Error);
}

/// The bytes through the real mmap path via a temp file.
void expect_mapped_rejects(const std::function<void(ByteWriter&)>& write_columns) {
  ByteWriter w;
  write_columns(w);
  const testfix::TempDir tmp;
  const std::string path = tmp / "hostile.bin";
  write_file(path, w.bytes());
  const auto mf = MappedFile::open(path);
  ByteReader r(mf->data(), mf->size());
  EXPECT_THROW(EventStore::deserialize_aligned(r, mf), Error);
}

TEST(EventStoreCorruption, OutOfRangeArenaHandleIsRejected) {
  expect_payload_rejects(write_out_of_range_handle);
}

TEST(EventStoreCorruption, WrappingArenaHandleIsRejected) {
  expect_payload_rejects(write_wrapping_handle);
}

TEST(EventStoreCorruption, InconsistentColumnLengthsAreRejected) {
  expect_payload_rejects(write_inconsistent_lengths);
}

TEST(AlignedCorruption2, OutOfRangeArenaHandleIsRejectedByMappedValidation) {
  expect_mapped_rejects(write_out_of_range_handle);
}

TEST(AlignedCorruption2, WrappingArenaHandleIsRejectedByMappedValidation) {
  expect_mapped_rejects(write_wrapping_handle);
}

TEST(AlignedCorruption2, InconsistentColumnLengthsAreRejectedByMappedValidation) {
  expect_mapped_rejects(write_inconsistent_lengths);
}

class ExperimentCorruption : public ::testing::Test {
 protected:
  /// A one-function experiment with three events and no counters: a
  /// "DSPG" events.bin.
  static Experiment tiny_experiment() {
    scc::Module m;
    scc::Function* main = m.add_function("main");
    {
      scc::FunctionBuilder fb(m, *main);
      fb.ret(scc::Val(i64{0}));
    }
    Experiment ex;
    ex.image = scc::compile(m);
    ex.log = "tiny";
    ex.events = make_store({{0x10, 0x20}, {}, {0x10, 0x20}});
    return ex;
  }

  /// tiny_experiment() as a multiplexed run — two counter sets and a slice
  /// table: a "DSPJ" events.bin.
  static Experiment tiny_multiplexed() {
    Experiment ex = tiny_experiment();
    ex.counters = {{HwEvent::EC_rd_miss, 97, true, 0, 0}, {HwEvent::DTLB_miss, 101, false, 0, 1}};
    ex.slices = {{600, 3}, {400, 2}};
    return ex;
  }

  /// Save `ex`, apply `mutate` to the bytes of `file`, and expect load() to
  /// throw an Error whose message names the file and the directory (and
  /// contains `reason`, when given).
  static void expect_corrupt(const Experiment& ex, const char* file,
                             const std::function<void(std::vector<u8>&)>& mutate,
                             const std::string& reason = "") {
    const testfix::TempDir tmp;
    const std::string dir = tmp / "exp";
    ex.save(dir);
    std::vector<u8> bytes = read_file(dir + "/" + file);
    mutate(bytes);
    write_file(dir + "/" + file, bytes);
    try {
      Experiment::load(dir);
      FAIL() << "expected Error loading mutated " << file;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(file), std::string::npos) << msg;
      EXPECT_NE(msg.find(dir), std::string::npos) << msg;
      EXPECT_NE(msg.find(reason), std::string::npos) << msg;
    }
  }
};

// ExperimentCorruption mutates the multiplexed "DSPJ" layout;
// AlignedCorruption below mutates "DSPG".

TEST_F(ExperimentCorruption, BadMagicIsRejected) {
  expect_corrupt(tiny_multiplexed(), "events.bin", [](std::vector<u8>& b) { b[0] ^= 0xFF; });
}

TEST_F(ExperimentCorruption, TruncatedHeaderIsRejected) {
  expect_corrupt(tiny_multiplexed(), "events.bin", [](std::vector<u8>& b) { b.resize(6); });
}

TEST_F(ExperimentCorruption, ImplausibleCounterCountIsRejected) {
  // The 32-bit counter count sits right after the magic; a huge value must be
  // rejected by the plausibility check, not drive allocation.
  expect_corrupt(tiny_multiplexed(), "events.bin",
                 [](std::vector<u8>& b) { b[4] = b[5] = b[6] = b[7] = 0xFF; });
}

TEST_F(ExperimentCorruption, TruncatedColumnIsRejected) {
  expect_corrupt(tiny_multiplexed(), "events.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

TEST_F(ExperimentCorruption, TrailingBytesAfterTrailerAreRejected) {
  expect_corrupt(tiny_multiplexed(), "events.bin", [](std::vector<u8>& b) { b.push_back(0); });
}

TEST_F(ExperimentCorruption, CorruptLoadobjectsIsRejectedWithContext) {
  expect_corrupt(tiny_multiplexed(), "loadobjects.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() / 2); });
}

TEST_F(ExperimentCorruption, BothFormatsStillRoundTripAfterHardening) {
  const testfix::TempDir tmp;
  for (const Experiment& ex : {tiny_experiment(), tiny_multiplexed()}) {
    const std::string dir = tmp / "exp";
    ex.save(dir);
    const Experiment back = Experiment::load(dir);
    EXPECT_EQ(back.multiplexed(), ex.multiplexed());
    ASSERT_EQ(back.counters.size(), ex.counters.size());
    ASSERT_EQ(back.events.size(), ex.events.size());
    for (size_t i = 0; i < ex.events.size(); ++i) {
      EXPECT_TRUE(back.events.callstack(i) == ex.events.callstack(i));
    }
  }
}

// --- corruption hardening over the plain "DSPG" layout -----------------------

using AlignedCorruption = ExperimentCorruption;

TEST_F(AlignedCorruption, BadMagicIsRejected) {
  expect_corrupt(tiny_experiment(), "events.bin", [](std::vector<u8>& b) { b[0] ^= 0xFF; });
}

TEST_F(AlignedCorruption, TruncatedHeaderIsRejected) {
  expect_corrupt(tiny_experiment(), "events.bin", [](std::vector<u8>& b) { b.resize(6); });
}

TEST_F(AlignedCorruption, ImplausibleCounterCountIsRejected) {
  expect_corrupt(tiny_experiment(), "events.bin",
                 [](std::vector<u8>& b) { b[4] = b[5] = b[6] = b[7] = 0xFF; });
}

TEST_F(AlignedCorruption, TruncatedColumnIsRejected) {
  expect_corrupt(tiny_experiment(), "events.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

// Header with zero counters: 4 (magic) + 4 (count) + 48 = 56 bytes. The
// event columns follow, each a u64 count padded to 8 and then its values.
constexpr size_t kPicColumnAt = 56;

TEST_F(AlignedCorruption, HugeColumnCountIsRejectedBeforeAllocation) {
  // A pic column count far beyond the bytes present must fail the
  // overflow-safe per-column bound (count <= remaining / sizeof(T)), not
  // drive a huge allocation or an out-of-bounds view.
  expect_corrupt(tiny_experiment(), "events.bin", [](std::vector<u8>& b) {
    ASSERT_GE(b.size(), kPicColumnAt + 8);
    for (size_t i = kPicColumnAt; i < kPicColumnAt + 8; ++i) b[i] = 0xFF;
  });
}

TEST_F(AlignedCorruption, CounterEventIdOutOfRangeIsRejected) {
  // A counter spec's event byte indexes per-metric arrays in Analysis; one
  // past the last hardware event must be rejected at load.
  Experiment ex = tiny_experiment();
  ex.counters = {{HwEvent::EC_rd_miss, 97, true, 0, 0}};
  expect_corrupt(ex, "events.bin", [](std::vector<u8>& b) {
    ASSERT_EQ(b[8], static_cast<u8>(HwEvent::EC_rd_miss));  // after magic + count
    b[8] = 200;
  });
}

TEST_F(AlignedCorruption, EventColumnIdOutOfRangeIsRejected) {
  // Same for the per-event event column, which the reduction indexes by.
  expect_corrupt(tiny_experiment(), "events.bin", [](std::vector<u8>& b) {
    const size_t event_count_at = kPicColumnAt + 8 + 3;  // after 3 pic bytes
    const size_t event_at = (event_count_at + 8 + 7) / 8 * 8;
    ASSERT_GT(b.size(), event_at);
    ASSERT_EQ(b[event_at], static_cast<u8>(HwEvent::EC_rd_miss));
    b[event_at] = 200;
  });
}

TEST_F(AlignedCorruption, TrailingBytesAfterTrailerAreRejected) {
  expect_corrupt(tiny_experiment(), "events.bin", [](std::vector<u8>& b) { b.push_back(0); });
}

TEST_F(AlignedCorruption, HugeAllocationCountIsRejectedBeforeAllocation) {
  // The trailer is the allocation count and its 24-byte records; the tiny
  // experiment has none, so the count is the file's last four bytes. An
  // all-ones count must fail the bound against the bytes left, not drive
  // allocation or a read past the end.
  expect_corrupt(
      tiny_experiment(), "events.bin",
      [](std::vector<u8>& b) {
        ASSERT_EQ(b.back(), 0);
        for (size_t i = b.size() - 4; i < b.size(); ++i) b[i] = 0xFF;
      },
      "implausible allocation count 4294967295");
}

TEST_F(AlignedCorruption, CorruptLoadobjectsIsRejectedWithContext) {
  expect_corrupt(tiny_experiment(), "loadobjects.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() / 2); });
}

TEST_F(AlignedCorruption, AlignedFormatStillRoundTripsAfterHardening) {
  const Experiment ex = tiny_experiment();
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex.save(dir);
  const Experiment back = Experiment::load(dir);
  ASSERT_EQ(back.events.size(), ex.events.size());
  for (size_t i = 0; i < ex.events.size(); ++i) {
    EXPECT_TRUE(back.events.callstack(i) == ex.events.callstack(i));
  }
  EXPECT_TRUE(back.events.is_mapped());
}

// --- experiment save/load self-profile ---------------------------------------

using ExperimentObs = ExperimentCorruption;

TEST_F(ExperimentObs, SaveAndLoadRecordTimeAndBytesOncePerCall) {
  if (!obs::enabled()) GTEST_SKIP() << "obs disabled (DSPROF_OBS=0)";
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  auto count = [](const obs::Snapshot& s, const char* name) {
    const obs::HistogramSnapshot* h = s.histogram_by_name(name);
    return h ? h->count : u64{0};
  };
  const obs::Snapshot before = obs::snapshot();
  tiny_experiment().save(dir);
  (void)Experiment::load(dir);
  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(count(after, "experiment.save_ns") - count(before, "experiment.save_ns"), 1u);
  EXPECT_EQ(count(after, "experiment.load_ns") - count(before, "experiment.load_ns"), 1u);
  u64 bytes = 0;
  for (const char* file : {"log.txt", "loadobjects.bin", "events.bin"}) {
    bytes += read_file(dir + "/" + file).size();
  }
  EXPECT_EQ(after.counter_value("experiment.bytes_loaded") -
                before.counter_value("experiment.bytes_loaded"),
            bytes);
}

// --- experiment round trips ---------------------------------------------------

class StoreRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Scale the caches below the working set so E$ events actually fire.
    machine::CpuConfig cfg;
    cfg.hierarchy.dcache = {4 * 1024, 4, 32, false};
    cfg.hierarchy.ecache = {32 * 1024, 2, 512, true};
    cfg.hierarchy.dtlb = {8, 2, 8 * 1024};
    auto m = testfix::make_chase_module(2000, 6, 4096);
    image_ = new sym::Image(scc::compile(*m));
    ex_ = new Experiment(
        testfix::quick_collect(*image_, "+ecstall,1009,+ecrm,97", "hi", cfg));
    ASSERT_GT(ex_->events.size(), 100u);
  }
  static void TearDownTestSuite() {
    delete ex_;
    delete image_;
    ex_ = nullptr;
    image_ = nullptr;
  }
  static void expect_same_events(const Experiment& x, const Experiment& y) {
    ASSERT_EQ(x.events.size(), y.events.size());
    for (size_t i = 0; i < x.events.size(); ++i) {
      const EventView a = x.events[i], b = y.events[i];
      ASSERT_EQ(a.pic, b.pic) << "event " << i;
      ASSERT_EQ(a.event, b.event) << "event " << i;
      ASSERT_EQ(a.weight, b.weight) << "event " << i;
      ASSERT_EQ(a.delivered_pc, b.delivered_pc) << "event " << i;
      ASSERT_EQ(a.has_candidate, b.has_candidate) << "event " << i;
      ASSERT_EQ(a.candidate_pc, b.candidate_pc) << "event " << i;
      ASSERT_EQ(a.has_ea, b.has_ea) << "event " << i;
      ASSERT_EQ(a.ea, b.ea) << "event " << i;
      ASSERT_TRUE(a.callstack == b.callstack) << "event " << i;
      ASSERT_EQ(a.seq, b.seq) << "event " << i;
    }
  }
  static sym::Image* image_;
  static Experiment* ex_;
};
sym::Image* StoreRoundTrip::image_ = nullptr;
Experiment* StoreRoundTrip::ex_ = nullptr;

u32 events_magic(const std::string& dir) {
  const std::vector<u8> bytes = read_file(dir + "/events.bin");
  ByteReader r(bytes);
  return r.get_u32();
}

// --- reduction determinism ---------------------------------------------------

std::string all_views(analyze::Analysis& a) {
  const size_t m = static_cast<size_t>(machine::HwEvent::EC_rd_miss);
  std::string s;
  s += analyze::render_overview(a);
  s += analyze::render_function_list(a);
  s += analyze::render_hot_pcs(a, m);
  s += analyze::render_data_objects(a, m);
  s += analyze::render_member_expansion(a, "pair");
  s += analyze::render_annotated_source(a, "walk_list");
  s += analyze::render_annotated_disassembly(a, "walk_list");
  s += analyze::render_callers_callees(a, "walk_list");
  s += analyze::render_effectiveness(a);
  s += analyze::render_segments(a);
  s += analyze::render_pages(a, m);
  s += analyze::render_cache_lines(a, m);
  s += analyze::render_instances(a, m);
  return s;
}

// --- zero-copy aligned layout + mmap loading ---------------------------------

TEST_F(StoreRoundTrip, AlignedFormatIsTheDefaultAndRoundTripsZeroCopy) {
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex_->save(dir);
  EXPECT_EQ(events_magic(dir), 0x44535047u);  // 'DSPG'
  const Experiment back = Experiment::load(dir);
  EXPECT_TRUE(back.events.is_mapped());
  expect_same_events(*ex_, back);
  EXPECT_EQ(back.events.unique_callstacks(), ex_->events.unique_callstacks());
  EXPECT_EQ(back.total_cycles, ex_->total_cycles);
  EXPECT_EQ(back.allocations, ex_->allocations);  // site PCs survive DSPG
}

TEST_F(StoreRoundTrip, MappedAndStreamedLoadsAgree) {
  // The two byte owners a decoded store can view: a mapped events.bin, and
  // a heap buffer as dsprofd receives a frame payload.
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex_->save(dir);
  const Experiment mapped = Experiment::load(dir);
  ASSERT_TRUE(mapped.events.is_mapped());
  Experiment streamed = *ex_;
  ByteWriter w;
  ex_->events.serialize_aligned(w);
  streamed.events = decode_payload(w.take());
  ASSERT_TRUE(streamed.events.is_mapped());
  expect_same_events(mapped, streamed);
  EXPECT_EQ(mapped.events.unique_callstacks(), streamed.events.unique_callstacks());
  // Both decodes feed the analyzer identically — and identically to the
  // original in-memory experiment.
  analyze::Analysis am(mapped), as(streamed), ao(*ex_);
  EXPECT_EQ(analyze::render_json_report(am), analyze::render_json_report(as));
  EXPECT_EQ(analyze::render_json_report(am), analyze::render_json_report(ao));
}

TEST_F(StoreRoundTrip, MappedStoreIsFrozenAndRefusesAppend) {
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex_->save(dir);
  Experiment back = Experiment::load(dir);
  ASSERT_TRUE(back.events.is_mapped());
  const u64 pc = 0x1000;
  EXPECT_THROW(back.events.append(0, machine::HwEvent::EC_rd_miss, 1, pc, false, 0, false,
                                  0, nullptr, 0, 0),
               Error);
  // A mapped store can still be copied into a live one, re-interning.
  EventStore live;
  live.append_range(back.events, 0, back.events.size());
  EXPECT_EQ(live.size(), back.events.size());
  EXPECT_EQ(live.unique_callstacks(), back.events.unique_callstacks());
}

TEST_F(StoreRoundTrip, SerializeRangeMatchesAppendRangeSlice) {
  const auto& ev = ex_->events;
  ASSERT_GT(ev.size(), 50u);
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 8; ++iter) {
    const size_t begin = rng() % ev.size();
    const size_t end = begin + rng() % (ev.size() - begin + 1);
    ByteWriter w;
    ev.serialize_range_aligned(w, begin, end);
    const EventStore got = decode_payload(w.take());
    EventStore want;
    want.append_range(ev, begin, end);
    ASSERT_EQ(got.size(), want.size()) << "[" << begin << "," << end << ")";
    for (size_t i = 0; i < got.size(); ++i) {
      const EventView a = got[i], b = want[i];
      ASSERT_EQ(a.pic, b.pic);
      ASSERT_EQ(a.weight, b.weight);
      ASSERT_EQ(a.delivered_pc, b.delivered_pc);
      ASSERT_EQ(a.candidate_pc, b.candidate_pc);
      ASSERT_EQ(a.ea, b.ea);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_TRUE(a.callstack == b.callstack) << "event " << i;
    }
    EXPECT_EQ(got.unique_callstacks(), want.unique_callstacks());
  }
}

// --- radix engine equivalence ------------------------------------------------

/// The reduction fields no rendered view shows in full: the per-metric
/// sample counts behind the standard errors, the event count and the
/// function-name table.
void expect_same_reduction(const analyze::ReductionResult& got,
                           const analyze::ReductionResult& want, const std::string& label) {
  EXPECT_EQ(got.sample_counts, want.sample_counts) << label;
  EXPECT_EQ(got.events_reduced, want.events_reduced) << label;
  EXPECT_EQ(got.func_names, want.func_names) << label;
}

TEST_F(StoreRoundTrip, RadixMatchesBaselineForAnyThreadCount) {
  analyze::AnalysisOptions base;
  base.engine = analyze::Reduction::Engine::Baseline;
  analyze::Analysis ab(*ex_, base);
  const std::string base_views = all_views(ab);
  for (unsigned t : {1u, 2u, 3u, 8u}) {
    analyze::AnalysisOptions opt;
    opt.engine = analyze::Reduction::Engine::Radix;
    opt.threads = t;
    analyze::Analysis ar(*ex_, opt);
    EXPECT_EQ(all_views(ar), base_views) << "threads=" << t;
    EXPECT_EQ(ar.total(), ab.total()) << "threads=" << t;
    EXPECT_EQ(ar.data_total(), ab.data_total()) << "threads=" << t;
    expect_same_reduction(ar.reduce(), ab.reduce(), "threads=" + std::to_string(t));
  }
}

TEST_F(StoreRoundTrip, RadixMatchesOnMappedExperiments) {
  // The fast path end to end: a DSPG experiment loaded through mmap views,
  // reduced by the radix engine, must render exactly what the owning store
  // and the baseline engine produce.
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex_->save(dir);
  const Experiment mapped = Experiment::load(dir);
  ASSERT_TRUE(mapped.events.is_mapped());
  analyze::AnalysisOptions radix;
  radix.engine = analyze::Reduction::Engine::Radix;
  analyze::AnalysisOptions base;
  base.engine = analyze::Reduction::Engine::Baseline;
  analyze::Analysis ar(mapped, radix), ab(*ex_, base);
  EXPECT_EQ(all_views(ar), all_views(ab));
}

// --- engine equivalence as a property over random stores ---------------------

/// Random fold inputs: valid and wild PCs, random flags/EAs, stacks drawn
/// from a small pool so interning kicks in. Events use the fixture image
/// and counters.
class RandomEvents {
 public:
  RandomEvents(u64 seed, const Experiment& like) : rng_(seed), like_(like) {
    for (auto& p : pool_) p = rand_pc();
  }

  u64 next() { return rng_(); }

  /// An experiment of `n` random events.
  Experiment experiment(size_t n) {
    Experiment ex;
    ex.image = like_.image;
    ex.counters = like_.counters;
    ex.clock_interval = like_.clock_interval;
    ex.clock_hz = like_.clock_hz;
    std::vector<u64> stack;
    for (size_t i = 0; i < n; ++i) {
      const unsigned pic = rng_() % 3;  // 0, 1, or the clock pic
      const machine::HwEvent event =
          pic == 2 ? machine::HwEvent::Cycle_cnt : ex.counters[pic].event;
      stack.clear();
      const size_t depth = rng_() % 5;
      for (size_t d = 0; d < depth; ++d) stack.push_back(pool_[rng_() % pool_.size()]);
      const bool has_candidate = rng_() % 2 != 0;
      const bool has_ea = has_candidate && rng_() % 2 != 0;
      ex.events.append(pic, event, 1 + rng_() % 10000, rand_pc(), has_candidate, rand_pc(),
                       has_ea, rng_() % (1u << 30), stack.data(), stack.size(), i);
    }
    return ex;
  }

 private:
  u64 rand_pc() {
    const u64 text_lo = 0x1000, text_hi = 0x1000 + 8 * 1024;
    switch (rng_() % 4) {
      case 0: return text_lo + (rng_() % ((text_hi - text_lo) / 4)) * 4;  // in text
      case 1: return rng_();                                               // wild
      case 2: return 0;
      default: return text_hi + rng_() % 4096;  // just past the image
    }
  }

  std::mt19937_64 rng_;
  const Experiment& like_;
  std::array<u64, 16> pool_{};
};

/// Reduce `exps` with Baseline and with Radix at each of `threads`, and
/// expect identical reports and reduction fields throughout.
void expect_engines_agree(const std::vector<const Experiment*>& exps,
                          std::initializer_list<unsigned> threads, const std::string& label) {
  analyze::AnalysisOptions base;
  base.engine = analyze::Reduction::Engine::Baseline;
  const analyze::Analysis ab(exps, base);
  const std::string want = analyze::render_json_report(ab);
  for (const unsigned t : threads) {
    analyze::AnalysisOptions opt;
    opt.engine = analyze::Reduction::Engine::Radix;
    opt.threads = t;
    const analyze::Analysis ar(exps, opt);
    const std::string at = label + " threads " + std::to_string(t);
    EXPECT_EQ(analyze::render_json_report(ar), want) << at;
    expect_same_reduction(ar.reduce(), ab.reduce(), at);
  }
}

TEST_F(StoreRoundTrip, EnginesAgreeOnRandomStoresAndThreadCounts) {
  // Fuzz the fold inputs, not just one collected workload: random stores
  // reduced by both engines at several thread counts — every rendered view
  // and every reduction field must be identical.
  RandomEvents gen(0xC0FFEE, *ex_);
  for (int round = 0; round < 3; ++round) {
    const Experiment ex = gen.experiment(500 + gen.next() % 1500);
    expect_engines_agree({&ex}, {1u, 3u}, "round " + std::to_string(round));
  }
}

TEST_F(StoreRoundTrip, EnginesAgreeOnZeroEvents) {
  // No events at all, alone and as several experiments: the reduction still
  // carries the function-name table and all-zero counts.
  RandomEvents gen(1, *ex_);
  const Experiment empty = gen.experiment(0);
  expect_engines_agree({&empty}, {1u, 4u}, "one empty");
  expect_engines_agree({&empty, &empty}, {1u, 4u}, "two empty");
  const analyze::ReductionResult r = analyze::Reduction::run({&empty}, 4);
  EXPECT_EQ(r.events_reduced, 0u);
  EXPECT_EQ(r.func_names.size(), image_->symtab.functions().size() + 1);
  EXPECT_EQ(r.sample_counts, analyze::MetricCounts{});
}

TEST_F(StoreRoundTrip, EnginesAgreeWhenShardBoundsFallOnExperimentBounds) {
  // Shards hold at least 4096 events, so experiments of exactly 4096 events
  // reduced on as many threads put every shard boundary on an experiment
  // boundary; an empty experiment between them puts one boundary on two.
  RandomEvents gen(0xB0B, *ex_);
  const Experiment a = gen.experiment(4096);
  const Experiment b = gen.experiment(4096);
  const Experiment c = gen.experiment(4096);
  const Experiment empty = gen.experiment(0);
  expect_engines_agree({&a, &b}, {1u, 2u}, "a b");
  expect_engines_agree({&a, &b, &c}, {1u, 2u, 3u}, "a b c");
  expect_engines_agree({&a, &empty, &b}, {1u, 2u}, "a empty b");
  expect_engines_agree({&empty, &a, &b, &empty}, {2u, 3u}, "empty a b empty");
}

}  // namespace
}  // namespace dsprof::experiment
