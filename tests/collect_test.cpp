#include <gtest/gtest.h>

#include <map>

#include "dsl_fixtures.hpp"
#include "temp_dir.hpp"

namespace dsprof::collect {
namespace {

using machine::HwEvent;

TEST(CounterSpec, ParsesNamesRatesAndBacktrackFlag) {
  const auto specs = parse_counter_spec("+ecstall,on,+ecrm,on");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].event, HwEvent::EC_stall_cycles);
  EXPECT_TRUE(specs[0].backtrack);
  EXPECT_EQ(specs[0].pic, 0u);
  EXPECT_EQ(specs[1].event, HwEvent::EC_rd_miss);
  EXPECT_TRUE(specs[1].backtrack);
  EXPECT_EQ(specs[1].pic, 1u);
}

TEST(CounterSpec, PaperCommandLines) {
  // The two command lines of §3.1.
  EXPECT_NO_THROW(parse_counter_spec("+ecstall,lo,+ecrm,on"));
  EXPECT_NO_THROW(parse_counter_spec("+ecref,on,+dtlbm,on"));
}

TEST(CounterSpec, NumericIntervalAndNoBacktrack) {
  const auto specs = parse_counter_spec("dtlbm,9973");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].interval, 9973u);
  EXPECT_FALSE(specs[0].backtrack);
}

TEST(CounterSpec, RegisterConflictRejected) {
  // ecstall and ecref both require PIC0 (as on the real chip, "two counters
  // must be on different registers").
  EXPECT_THROW(parse_counter_spec("+ecstall,on,+ecref,on"), Error);
  EXPECT_THROW(parse_counter_spec("+ecrm,on,+dtlbm,on"), Error);
}

TEST(CounterSpec, ErrorsRejected) {
  EXPECT_THROW(parse_counter_spec("bogus,on"), Error);
  EXPECT_THROW(parse_counter_spec("ecstall"), Error);       // missing rate
  EXPECT_THROW(parse_counter_spec("ecstall,fast"), Error);  // bad rate word
  EXPECT_THROW(parse_counter_spec("cycles,on,insts,on,icm,on"), Error);  // > 2
}

/// The Error message produced by a bad spec ("" if it unexpectedly parses).
std::string spec_error(const std::string& spec) {
  try {
    parse_counter_spec(spec);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CounterSpec, ConflictMessageNamesBothCountersAndTheRegister) {
  // ecstall and ecref both require PIC0: the error must say which counter
  // could not be scheduled, which register it needs, and who holds it.
  const std::string msg = spec_error("+ecstall,on,+ecref,on");
  EXPECT_NE(msg.find("'ecref'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("PIC0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'ecstall'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cannot be scheduled"), std::string::npos) << msg;
}

TEST(CounterSpec, UnknownCounterNameIsNamed) {
  const std::string msg = spec_error("bogus,on");
  EXPECT_NE(msg.find("unknown hardware counter: bogus"), std::string::npos) << msg;
}

TEST(CounterSpec, MalformedRatesAreExplained) {
  // A bad rate word names the offender and lists the accepted forms.
  const std::string word = spec_error("ecstall,fast");
  EXPECT_NE(word.find("bad counter rate 'fast'"), std::string::npos) << word;
  EXPECT_NE(word.find("'hi', 'on', 'lo'"), std::string::npos) << word;
  // A zero interval is rejected (the counter would overflow immediately).
  const std::string zero = spec_error("ecstall,0");
  EXPECT_NE(zero.find("must be positive"), std::string::npos) << zero;
  // An empty rate token is rejected too ("ecstall," tokenizes to a pair).
  const std::string empty = spec_error("ecstall,");
  EXPECT_NE(empty.find("empty counter rate"), std::string::npos) << empty;
}

TEST(CounterSpec, DuplicatePlusPrefixRejected) {
  const std::string msg = spec_error("++ecstall,on");
  EXPECT_NE(msg.find("duplicate '+' prefix on counter '++ecstall'"), std::string::npos)
      << msg;
  // A bare '+' has no counter name at all.
  const std::string bare = spec_error("+,on");
  EXPECT_NE(bare.find("missing counter name after '+'"), std::string::npos) << bare;
}

TEST(CounterSpec, OddTokenCountShowsAnExample) {
  const std::string msg = spec_error("ecstall");
  EXPECT_NE(msg.find("name,rate pairs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("+ecstall,on,+ecrm,hi"), std::string::npos) << msg;
}

TEST(CounterSpec, TooManyCountersNamesTheLimit) {
  const std::string msg = spec_error("cycles,on,insts,on,icm,on");
  EXPECT_NE(msg.find("at most 2 hardware counters"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 3"), std::string::npos) << msg;
}

TEST(CounterSpec, IntervalsArePrime) {
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    for (const char* rate : {"hi", "on", "lo"}) {
      const u64 v = overflow_interval(static_cast<HwEvent>(i), rate);
      EXPECT_EQ(next_prime(v), v) << "interval not prime for event " << i << " rate " << rate;
    }
  }
}

TEST(CounterSpec, ListCountersMentionsEverything) {
  const std::string text = list_counters();
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    EXPECT_NE(text.find(machine::hw_event_info(static_cast<HwEvent>(i)).name),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// End-to-end collection on a DSL program

class CollectorEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto mod = testfix::make_chase_module(3000, 6, 8192);
    image_ = new sym::Image(scc::compile(*mod));
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }
  static sym::Image* image_;
};

sym::Image* CollectorEndToEnd::image_ = nullptr;

TEST_F(CollectorEndToEnd, RecordsEventsAndRunsToCompletion) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,97", "on");
  EXPECT_GT(ex.events.size(), 50u);
  EXPECT_GT(ex.total_instructions, 100000u);
  EXPECT_FALSE(ex.log.empty());
  EXPECT_EQ(ex.truth.size(),
            static_cast<size_t>(std::count_if(ex.events.begin(), ex.events.end(),
                                              [](const auto& e) {
                                                return e.pic != machine::kClockPic;
                                              })));
  // Clock samples present too.
  bool any_clock = false;
  for (const auto& e : ex.events) any_clock |= e.pic == machine::kClockPic;
  EXPECT_TRUE(any_clock);
}

TEST_F(CollectorEndToEnd, BatchExportStreamsEveryEventExactlyOnce) {
  // The live-streaming hook (dsprof_send's path into dsprofd): batches handed
  // to batch_export during the run, concatenated, must equal the experiment's
  // final event store field for field — nothing duplicated, nothing missed.
  collect::CollectOptions opt;
  opt.hw = "+dcrm,97";
  opt.clock = "on";
  opt.batch_export_events = 32;
  experiment::EventStore seen;
  size_t batches = 0, last_flags = 0;
  opt.batch_export = [&](const experiment::EventStore& b, bool last) {
    ++batches;
    if (last) {
      ++last_flags;
    } else {
      // Non-final batches fire exactly at the threshold.
      EXPECT_EQ(b.size(), opt.batch_export_events);
    }
    seen.append_store(b);
  };
  collect::Collector c(*image_, opt);
  auto ex = c.run();

  EXPECT_EQ(last_flags, 1u) << "the final flush fires exactly once";
  EXPECT_GT(batches, 2u) << "threshold of 32 must split this run";
  ASSERT_EQ(seen.size(), ex.events.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    const auto e = ex.events[i];
    const auto s = seen[i];
    ASSERT_EQ(s.seq, e.seq) << "event " << i;
    EXPECT_EQ(s.pic, e.pic);
    EXPECT_EQ(s.event, e.event);
    EXPECT_EQ(s.weight, e.weight);
    EXPECT_EQ(s.delivered_pc, e.delivered_pc);
    EXPECT_EQ(s.has_candidate, e.has_candidate);
    EXPECT_EQ(s.candidate_pc, e.candidate_pc);
    EXPECT_EQ(s.has_ea, e.has_ea);
    EXPECT_EQ(s.ea, e.ea);
    EXPECT_TRUE(s.callstack == e.callstack.to_vector());
  }
}

TEST_F(CollectorEndToEnd, BacktrackingFindsTriggersWithGroundTruthAccuracy) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,89");
  std::map<u64, machine::TruthRecord> truth;
  for (const auto& t : ex.truth) truth[t.seq] = t;
  const sym::SymbolTable& st = image_->symtab;

  size_t hw_events = 0, with_candidate = 0, exact = 0, same_object = 0;
  size_t ea_exact = 0, ea_known = 0, ea_checked = 0;
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    ++hw_events;
    if (!e.has_candidate) continue;
    ++with_candidate;
    const auto& t = truth.at(e.seq);
    if (e.candidate_pc == t.trigger_pc) ++exact;
    // Object-level accuracy: when candidate and trigger differ, does the
    // candidate still reference the same data aggregate? (This is what the
    // data-space views depend on.)
    const sym::MemRef* cand_ref = st.memref_for(e.candidate_pc);
    const sym::MemRef* true_ref = st.memref_for(t.trigger_pc);
    if (cand_ref && true_ref && cand_ref->kind == true_ref->kind &&
        cand_ref->aggregate == true_ref->aggregate) {
      ++same_object;
    }
    if (e.has_ea) {
      ++ea_known;
      // The reported EA is the *candidate's* address; it is verifiable
      // against ground truth only when the candidate is the true trigger
      // (otherwise it is the paper's "putative effective address").
      if (e.candidate_pc == t.trigger_pc) {
        ++ea_checked;
        if (t.ea_valid && e.ea == t.ea) ++ea_exact;
      }
    }
  }
  ASSERT_GT(hw_events, 50u);
  // A candidate is nearly always found; in a tight loop (iteration shorter
  // than worst-case skid) it may be a neighbouring memory op, but it almost
  // always names the right data object.
  EXPECT_GT(with_candidate, hw_events * 8 / 10);
  EXPECT_GT(exact, with_candidate / 4);
  EXPECT_GT(same_object, with_candidate * 6 / 10);
  // When the candidate is the true trigger, the recomputed effective address
  // must never be wrong — the collector detects clobbered address registers
  // rather than reporting a bad address.
  EXPECT_EQ(ea_exact, ea_checked);
  EXPECT_GT(ea_known, hw_events / 5);
}

TEST_F(CollectorEndToEnd, DtlbBacktrackingIsPerfect) {
  // Shrink the DTLB so the list + array working set thrashes it.
  machine::CpuConfig cfg;
  cfg.hierarchy.dtlb = {8, 2, 8 * 1024};
  auto ex = testfix::quick_collect(*image_, "+dtlbm,7", "off", cfg);
  std::map<u64, machine::TruthRecord> truth;
  for (const auto& t : ex.truth) truth[t.seq] = t;
  size_t n = 0;
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    ++n;
    ASSERT_TRUE(e.has_candidate);
    EXPECT_EQ(e.candidate_pc, truth.at(e.seq).trigger_pc);
    ASSERT_TRUE(e.has_ea);
    EXPECT_EQ(e.ea, truth.at(e.seq).ea);
  }
  EXPECT_GT(n, 10u);
}

TEST_F(CollectorEndToEnd, NoBacktrackWithoutPlus) {
  auto ex = testfix::quick_collect(*image_, "dcrm,89");
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    EXPECT_FALSE(e.has_candidate);
    EXPECT_FALSE(e.has_ea);
  }
}

TEST_F(CollectorEndToEnd, AllocationLogCaptured) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,997");
  // One node array + one long array.
  EXPECT_EQ(ex.allocations.size(), 2u);
  for (const auto& a : ex.allocations) {
    EXPECT_GE(a.addr, mem::kHeapBase);
    EXPECT_GT(a.size, 0u);
    EXPECT_NE(a.site_pc, 0u);  // noted from inside the program's text
  }
}

TEST_F(CollectorEndToEnd, SampledTotalsEstimateTrueCounts) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,89");
  collect::CollectOptions opt;
  opt.hw = "+dcrm,89";
  collect::Collector c(*image_, opt);
  auto ex2 = c.run();
  const u64 true_total = c.cpu().event_total(machine::HwEvent::DC_rd_miss);
  double est = 0;
  for (const auto& e : ex2.events) {
    if (e.pic != machine::kClockPic) est += static_cast<double>(e.weight);
  }
  ASSERT_GT(true_total, 1000u);
  EXPECT_NEAR(est / static_cast<double>(true_total), 1.0, 0.05);
}

TEST_F(CollectorEndToEnd, ExperimentSaveLoadRoundTrip) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,997", "on");
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex.save(dir);
  const experiment::Experiment back = experiment::Experiment::load(dir);
  EXPECT_EQ(back.events.size(), ex.events.size());
  EXPECT_EQ(back.counters.size(), ex.counters.size());
  EXPECT_EQ(back.total_cycles, ex.total_cycles);
  EXPECT_EQ(back.allocations, ex.allocations);
  // The simulator's truth log stays in memory: events.bin does not carry it.
  EXPECT_FALSE(ex.truth.empty());
  EXPECT_TRUE(back.truth.empty());
  EXPECT_EQ(back.image.text_words, ex.image.text_words);
  EXPECT_EQ(back.log, ex.log);
  for (size_t i = 0; i < std::min<size_t>(ex.events.size(), 20); ++i) {
    EXPECT_EQ(back.events[i].delivered_pc, ex.events[i].delivered_pc);
    EXPECT_EQ(back.events[i].candidate_pc, ex.events[i].candidate_pc);
    EXPECT_EQ(back.events[i].ea, ex.events[i].ea);
  }
}

TEST_F(CollectorEndToEnd, DeterministicAcrossRuns) {
  auto a = testfix::quick_collect(*image_, "+ecrm,211");
  auto b = testfix::quick_collect(*image_, "+ecrm,211");
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].delivered_pc, b.events[i].delivered_pc);
    EXPECT_EQ(a.events[i].candidate_pc, b.events[i].candidate_pc);
  }
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

}  // namespace
}  // namespace dsprof::collect
