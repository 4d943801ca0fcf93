// Callstack recording and the callers-callees / inclusive-metric views
// (paper §2.2: experiments record "the callstacks associated with" profile
// events; §2.3: the analyzer shows callers and callees with attributed
// metrics).
#include <gtest/gtest.h>

#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "temp_dir.hpp"

namespace dsprof {
namespace {

using analyze::Analysis;
using machine::HwEvent;

/// main -> outer -> inner(memory-heavy); plus main -> direct(memory-heavy).
std::unique_ptr<scc::Module> make_nested_module() {
  using namespace scc;
  auto m = std::make_unique<Module>();
  Function* mal = add_runtime(*m);

  Function* inner = m->add_function("inner");
  {
    FunctionBuilder fb(*m, *inner);
    auto arr = fb.param("arr", Type::ptr_i64());
    auto n = fb.param("n", Type::i64());
    auto i = fb.local("i", Type::i64());
    auto sum = fb.local("sum", Type::i64());
    fb.set(sum, 0);
    fb.set(i, 0);
    fb.while_(i < n, [&] {
      fb.set(sum, sum + arr.idx((i * 127) % n));
      fb.set(i, i + 1);
    });
    fb.ret(sum);
  }
  Function* outer = m->add_function("outer");
  {
    FunctionBuilder fb(*m, *outer);
    auto arr = fb.param("arr", Type::ptr_i64());
    auto n = fb.param("n", Type::i64());
    fb.ret(fb.call(inner, {arr, n}) + 1);
  }
  Function* direct = m->add_function("direct");
  {
    FunctionBuilder fb(*m, *direct);
    auto arr = fb.param("arr", Type::ptr_i64());
    auto n = fb.param("n", Type::i64());
    auto i = fb.local("i", Type::i64());
    auto sum = fb.local("sum", Type::i64());
    fb.set(sum, 0);
    fb.set(i, 0);
    fb.while_(i < n, [&] {
      fb.set(sum, sum + arr.idx((i * 131) % n));
      fb.set(i, i + 1);
    });
    fb.ret(sum);
  }
  Function* main = m->add_function("main");
  {
    FunctionBuilder fb(*m, *main);
    auto arr = fb.local("arr", Type::ptr_i64());
    auto it = fb.local("it", Type::i64());
    auto acc = fb.local("acc", Type::i64());
    const i64 n = 20000;
    fb.set(arr, cast(fb.call(mal, {Val(n * 8)}), Type::ptr_i64()));
    fb.set(acc, 0);
    fb.set(it, 0);
    fb.while_(it < 10, [&] {
      fb.set(acc, acc + fb.call(outer, {arr, Val(n)}));
      fb.set(acc, acc + fb.call(direct, {arr, Val(n)}));
      fb.set(it, it + 1);
    });
    fb.ret(acc & 0xFF);
  }
  return m;
}

class CallGraph : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto mod = make_nested_module();
    image_ = new sym::Image(scc::compile(*mod));
    machine::CpuConfig cfg;
    cfg.hierarchy.ecache = {64 * 1024, 2, 512, true};
    ex_ = new experiment::Experiment(
        testfix::quick_collect(*image_, "+ecstall,1009,+ecrm,97", "hi", cfg));
    analysis_ = new Analysis(*ex_);
  }
  static void TearDownTestSuite() {
    delete analysis_;
    delete ex_;
    delete image_;
  }
  static sym::Image* image_;
  static experiment::Experiment* ex_;
  static Analysis* analysis_;
};

sym::Image* CallGraph::image_ = nullptr;
experiment::Experiment* CallGraph::ex_ = nullptr;
Analysis* CallGraph::analysis_ = nullptr;

TEST_F(CallGraph, EventsCarryCallstacks) {
  size_t with_stack = 0, total = 0;
  for (const auto& e : ex_->events) {
    ++total;
    if (!e.callstack.empty()) ++with_stack;
    // Every call site must be a CALL instruction inside text.
    for (u64 site : e.callstack) {
      EXPECT_GE(site, ex_->image.text_base);
      EXPECT_LT(site, ex_->image.text_base + ex_->image.text_size());
    }
  }
  ASSERT_GT(total, 50u);
  // Almost everything happens below main (at least one frame).
  EXPECT_GT(with_stack, total * 8 / 10);
}

TEST_F(CallGraph, InclusiveIsAtLeastExclusive) {
  for (size_t metric = 0; metric < analyze::kNumMetrics; ++metric) {
    auto incl = analysis_->functions_inclusive(metric);
    for (const auto& f : analysis_->functions(metric)) {
      double inc = 0;
      for (const auto& g : incl) {
        if (g.name == f.name) inc = g.mv[metric];
      }
      EXPECT_GE(inc, f.mv[metric] - 1e-9) << f.name << " metric " << metric;
    }
  }
}

TEST_F(CallGraph, MainInclusiveCoversEverything) {
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  double main_incl = 0;
  for (const auto& f : analysis_->functions_inclusive(stall)) {
    if (f.name == "main") main_incl = f.mv[stall];
  }
  // All stall events happen inside main's dynamic extent (modulo the
  // handful delivered in _start / with truncated stacks).
  EXPECT_GT(main_incl, analysis_->total()[stall] * 0.95);
}

TEST_F(CallGraph, CallersAndCalleesMatchTheProgramStructure) {
  const auto callers_inner = analysis_->callers_of("inner");
  ASSERT_EQ(callers_inner.size(), 1u);
  EXPECT_EQ(callers_inner[0].name, "outer");

  bool outer_calls_inner = false;
  for (const auto& r : analysis_->callees_of("outer")) {
    if (r.name == "inner") outer_calls_inner = true;
  }
  EXPECT_TRUE(outer_calls_inner);

  // main's callees include outer and direct (and malloc).
  std::vector<std::string> callees;
  for (const auto& r : analysis_->callees_of("main")) callees.push_back(r.name);
  auto has = [&](const char* n) {
    return std::find(callees.begin(), callees.end(), n) != callees.end();
  };
  EXPECT_TRUE(has("outer"));
  EXPECT_TRUE(has("direct"));
}

TEST_F(CallGraph, EdgeWeightsFlowThroughTheChain) {
  const size_t stall = static_cast<size_t>(HwEvent::EC_stall_cycles);
  // Weight attributed to outer->inner equals inner's exclusive weight
  // (inner is only called from outer and calls nothing).
  double inner_excl = 0;
  for (const auto& f : analysis_->functions(stall)) {
    if (f.name == "inner") inner_excl = f.mv[stall];
  }
  double edge = 0;
  for (const auto& r : analysis_->callers_of("inner")) edge += r.attributed[stall];
  EXPECT_NEAR(edge, inner_excl, inner_excl * 0.01 + 1);
  ASSERT_GT(inner_excl, 0.0);
}

TEST_F(CallGraph, RendererShowsBothDirections) {
  const std::string out = analyze::render_callers_callees(*analysis_, "outer");
  EXPECT_NE(out.find("main (caller)"), std::string::npos);
  EXPECT_NE(out.find("inner (callee)"), std::string::npos);
  EXPECT_NE(out.find("*outer (inclusive)"), std::string::npos);
}

TEST_F(CallGraph, CallstacksSurviveSaveLoad) {
  const testfix::TempDir tmp;
  const std::string dir = tmp / "exp";
  ex_->save(dir);
  const experiment::Experiment back = experiment::Experiment::load(dir);
  ASSERT_EQ(back.events.size(), ex_->events.size());
  for (size_t i = 0; i < back.events.size(); i += 7) {
    EXPECT_EQ(back.events[i].callstack, ex_->events[i].callstack);
  }
}

TEST(CallGraphRecursion, RecursiveStacksAreBounded) {
  // sort_basket-style recursion must not inflate inclusive metrics: a
  // recursive function appears once per event in the inclusive view.
  using namespace scc;
  Module m;
  Function* mal = add_runtime(m);
  Function* rec = m.add_function("rec");
  {
    FunctionBuilder fb(m, *rec);
    auto arr = fb.param("arr", Type::ptr_i64());
    auto n = fb.param("n", Type::i64());
    fb.if_(n <= 0, [&] { fb.ret(Val(0)); });
    auto x = fb.local("x", Type::i64());
    fb.set(x, arr.idx((n * 119) % 4096));
    fb.ret(x + fb.call(rec, {arr, n - 1}));
  }
  Function* main = m.add_function("main");
  {
    FunctionBuilder fb(m, *main);
    auto arr = fb.local("arr", Type::ptr_i64());
    auto it = fb.local("it", Type::i64());
    auto acc = fb.local("acc", Type::i64());
    fb.set(arr, cast(fb.call(mal, {Val(4096 * 8)}), Type::ptr_i64()));
    fb.set(acc, 0);
    fb.set(it, 0);
    fb.while_(it < 200, [&] {
      fb.set(acc, acc + fb.call(rec, {arr, Val(100)}));
      fb.set(it, it + 1);
    });
    fb.ret(acc & 0xFF);
  }
  const sym::Image img = scc::compile(m);
  auto ex = testfix::quick_collect(img, "+dcrm,89");
  Analysis a(ex);
  const size_t dcrm = static_cast<size_t>(HwEvent::DC_rd_miss);
  double rec_incl = 0, total = a.total()[dcrm];
  for (const auto& f : a.functions_inclusive(dcrm)) {
    if (f.name == "rec") rec_incl = f.mv[dcrm];
  }
  ASSERT_GT(total, 0.0);
  EXPECT_LE(rec_incl, total + 1e-9);  // deduped: never exceeds the total
  // rec is its own dominant caller.
  double self_edge = 0, other = 0;
  for (const auto& r : a.callers_of("rec")) {
    if (r.name == "rec") self_edge = r.attributed[dcrm];
    else other += r.attributed[dcrm];
  }
  EXPECT_GT(self_edge, other);
}

}  // namespace
}  // namespace dsprof
