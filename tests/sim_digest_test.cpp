// Golden digests of the simulated machine. For each builtin workload this
// pins, exactly:
//   * retired instructions and elapsed cycles,
//   * the true total of every hardware event (Cpu::event_total),
//   * the number of recorded profile events per counter,
//   * a 64-bit FNV-1a hash over every recorded event column (callstacks
//     included) and over the simulator's ground-truth log.
// The simulator is deterministic, so these repeat bit for bit. Any change to
// the interpreter, the cache/TLB model, the memory or the counter/skid logic
// that moves observable behaviour moves at least one of them: a change to
// the simulator may only land if this test still passes with the digests
// below untouched.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "collect/collector.hpp"
#include "mcfsim/experiments.hpp"
#include "opt/workloads.hpp"
#include "scc/builder.hpp"
#include "scc/compile.hpp"

namespace dsprof {
namespace {

using machine::HwEvent;
using machine::kNumHwEvents;

struct Digest {
  u64 instructions = 0;
  u64 cycles = 0;
  std::array<u64, kNumHwEvents> event_totals{};
  std::map<std::string, u64> events_per_counter;
  u64 hash = 0;

  bool operator==(const Digest&) const = default;
};

class Fnv1a {
 public:
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

std::string counter_name(u8 pic, HwEvent ev) {
  return pic == machine::kClockPic ? "clock" : machine::hw_event_info(ev).name;
}

Digest digest_of(const machine::Cpu& cpu, const experiment::Experiment& ex) {
  Digest d;
  d.instructions = cpu.total_instructions();
  d.cycles = cpu.total_cycles();
  for (size_t e = 0; e < kNumHwEvents; ++e) d.event_totals[e] = cpu.event_total(HwEvent(e));
  Fnv1a h;
  const experiment::EventStore& ev = ex.events;
  for (size_t i = 0; i < ev.size(); ++i) {
    const experiment::EventView v = ev[i];
    ++d.events_per_counter[counter_name(v.pic, v.event)];
    h.add(v.pic);
    h.add(static_cast<u64>(v.event));
    h.add(v.weight);
    h.add(v.delivered_pc);
    h.add(v.has_candidate);
    h.add(v.candidate_pc);
    h.add(v.has_ea);
    h.add(v.ea);
    h.add(v.seq);
    h.add(v.set);
    h.add(v.callstack.size());
    for (size_t k = 0; k < v.callstack.size(); ++k) h.add(v.callstack[k]);
  }
  for (const machine::TruthRecord& t : ex.truth) {
    h.add(t.seq);
    h.add(t.pic);
    h.add(static_cast<u64>(t.event));
    h.add(t.trigger_pc);
    h.add(t.ea_valid);
    h.add(t.ea);
    h.add(t.skid);
  }
  d.hash = h.value();
  return d;
}

/// The digest as a C++ initializer, printed on a mismatch.
std::string to_string(const Digest& d) {
  char buf[64];
  std::string s = "{" + std::to_string(d.instructions) + "u, " + std::to_string(d.cycles) + "u, {";
  for (size_t e = 0; e < kNumHwEvents; ++e) {
    s += (e ? ", " : "") + std::to_string(d.event_totals[e]) + "u";
  }
  s += "}, {";
  bool first = true;
  for (const auto& [name, n] : d.events_per_counter) {
    s += (first ? "{\"" : ", {\"") + name + "\", " + std::to_string(n) + "u}";
    first = false;
  }
  std::snprintf(buf, sizeof buf, "}, 0x%016" PRIx64 "ull}", d.hash);
  return s + buf;
}

Digest collect_digest(const sym::Image& image, const std::string& hw, const std::string& clock,
                      const machine::CpuConfig& cpu,
                      const std::function<void(machine::Cpu&)>& setup = {}) {
  collect::CollectOptions opt;
  opt.hw = hw;
  opt.clock = clock;
  opt.cpu = cpu;
  collect::Collector c(image, opt);
  const experiment::Experiment ex = c.run(setup);
  return digest_of(c.cpu(), ex);
}

void expect_digest(const Digest& got, const Digest& want) {
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.cycles, want.cycles);
  for (size_t e = 0; e < kNumHwEvents; ++e) {
    EXPECT_EQ(got.event_totals[e], want.event_totals[e])
        << "event " << machine::hw_event_info(HwEvent(e)).name;
  }
  EXPECT_EQ(got.events_per_counter, want.events_per_counter);
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_TRUE(got == want) << "simulated behaviour changed; now " << to_string(got);
}

// --- the paper's MCF runs -----------------------------------------------------

/// One of the two §3.1 collect command lines of mcfsim::collect_paper_experiments
/// (the FIG1-FIG7 benches' setup), run to completion.
Digest mcf_fig1_digest(const std::string& hw, const std::string& clock) {
  const mcfsim::PaperSetup s = mcfsim::PaperSetup::standard();
  return collect_digest(mcfsim::build_mcf_image(s.build), hw, clock, s.cpu,
                        [&](machine::Cpu& cpu) { mcfsim::write_input(cpu.memory(), s.run); });
}

/// An er_opt builtin workload's baseline profiling run.
Digest workload_digest(const opt::Workload& w) {
  return collect_digest(w.build(nullptr), w.hw, w.clock, w.cpu, w.setup);
}

// --- the example programs -----------------------------------------------------

// The two programs below are copies of examples/matrix_traversal.cpp and
// examples/cache_conscious_tree.cpp (module and collect options), frozen
// here so the digests do not depend on the examples staying as they are.

machine::CpuConfig example_machine() {
  machine::CpuConfig cpu;
  cpu.hierarchy.dcache = {16 * 1024, 4, 32, false};
  cpu.hierarchy.ecache = {256 * 1024, 2, 512, true};
  return cpu;
}

sym::Image matrix_traversal_image() {
  using scc::FunctionBuilder;
  using scc::Type;
  using scc::Val;
  constexpr i64 kN = 768;
  scc::Module mod;
  scc::Function* mal = scc::add_runtime(mod);
  auto make_sweep = [&](const char* name, bool row_major) {
    scc::Function* f = mod.add_function(name);
    FunctionBuilder fb(mod, *f);
    auto a = fb.param("a", Type::ptr_i64());
    auto i = fb.local("i", Type::i64());
    auto j = fb.local("j", Type::i64());
    auto sum = fb.local("sum", Type::i64());
    fb.set(sum, 0);
    fb.set(i, 0);
    fb.while_(i < kN, [&] {
      fb.set(j, 0);
      fb.while_(j < kN, [&] {
        if (row_major) {
          fb.set(sum, sum + a.idx(i * kN + j));
        } else {
          fb.set(sum, sum + a.idx(j * kN + i));
        }
        fb.set(j, j + 1);
      });
      fb.set(i, i + 1);
    });
    fb.ret(sum);
    return f;
  };
  scc::Function* by_rows = make_sweep("sum_by_rows", true);
  scc::Function* by_cols = make_sweep("sum_by_cols", false);
  scc::Function* main_fn = mod.add_function("main");
  FunctionBuilder fb(mod, *main_fn);
  auto a = fb.local("a", Type::ptr_i64());
  fb.set(a, scc::cast(fb.call(mal, {Val(kN * kN * 8)}), Type::ptr_i64()));
  auto r = fb.local("r", Type::i64());
  fb.set(r, fb.call(by_rows, {a}));
  fb.set(r, r + fb.call(by_cols, {a}));
  fb.ret(Val(0));
  return scc::compile(mod);
}

sym::Image cache_conscious_tree_image() {
  using scc::FunctionBuilder;
  using scc::Type;
  using scc::Val;
  constexpr i64 kNodes = (1 << 15) - 1;
  constexpr i64 kQueries = 20000;
  scc::Module mod;
  scc::StructDef* tnode = mod.add_struct("tree_node");
  tnode->field("key", Type::i64())
      .field("left", Type::ptr(tnode))
      .field("right", Type::ptr(tnode))
      .field("payload", Type::i64());
  scc::Function* mal = scc::add_runtime(mod);

  scc::Function* ptr_search = mod.add_function("pointer_search");
  {
    FunctionBuilder fb(mod, *ptr_search);
    auto root = fb.param("root", Type::ptr(tnode));
    auto key = fb.param("key", Type::i64());
    auto cur = fb.local("cur", Type::ptr(tnode));
    fb.set(cur, root);
    fb.while_(cur != 0, [&] {
      fb.if_(cur["key"] == key, [&] { fb.ret(cur["payload"]); });
      fb.if_else(key < cur["key"], [&] { fb.set(cur, cur["left"]); },
                 [&] { fb.set(cur, cur["right"]); });
    });
    fb.ret(Val(-1));
  }

  scc::Function* array_search = mod.add_function("array_search");
  {
    FunctionBuilder fb(mod, *array_search);
    auto keys = fb.param("keys", Type::ptr_i64());
    auto payloads = fb.param("payloads", Type::ptr_i64());
    auto n = fb.param("n", Type::i64());
    auto key = fb.param("key", Type::i64());
    auto i = fb.local("i", Type::i64());
    fb.set(i, 0);
    fb.while_(i < n, [&] {
      fb.if_(keys.idx(i) == key, [&] { fb.ret(payloads.idx(i)); });
      fb.if_else(key < keys.idx(i), [&] { fb.set(i, i * 2 + 1); },
                 [&] { fb.set(i, i * 2 + 2); });
    });
    fb.ret(Val(-1));
  }

  scc::Function* main_fn = mod.add_function("main");
  FunctionBuilder fb(mod, *main_fn);
  auto nodes = fb.local("nodes", Type::ptr(tnode));
  auto keys = fb.local("keys", Type::ptr_i64());
  auto payloads = fb.local("payloads", Type::ptr_i64());
  auto i = fb.local("i", Type::i64());
  auto lo = fb.local("lo", Type::i64());
  auto hi = fb.local("hi", Type::i64());
  auto stacksz = fb.local("stacksz", Type::i64());
  auto work = fb.local("work", Type::ptr_i64());
  auto slot = fb.local("slot", Type::i64());
  auto mid = fb.local("mid", Type::i64());
  auto p = fb.local("p", Type::ptr(tnode));
  auto acc = fb.local("acc", Type::i64());
  auto q = fb.local("q", Type::i64());

  fb.set(nodes, scc::cast(fb.call(mal, {Val(kNodes * static_cast<i64>(tnode->size()))}),
                          Type::ptr(tnode)));
  fb.set(keys, scc::cast(fb.call(mal, {Val(kNodes * 8)}), Type::ptr_i64()));
  fb.set(payloads, scc::cast(fb.call(mal, {Val(kNodes * 8)}), Type::ptr_i64()));
  fb.set(work, scc::cast(fb.call(mal, {Val(kNodes * 24 + 64)}), Type::ptr_i64()));

  fb.set(work.idx(Val(0)), 0);
  fb.set(work.idx(Val(1)), 0);
  fb.set(work.idx(Val(2)), kNodes);
  fb.set(stacksz, 1);
  fb.while_(stacksz > 0, [&] {
    fb.set(stacksz, stacksz - 1);
    fb.set(slot, work.idx(stacksz * 3));
    fb.set(lo, work.idx(stacksz * 3 + 1));
    fb.set(hi, work.idx(stacksz * 3 + 2));
    fb.set(mid, (lo + hi) / 2);
    fb.set(p, nodes + (slot * 1997 + 3) % kNodes);
    fb.set(p["key"], mid);
    fb.set(p["payload"], mid * 3);
    fb.set(keys.idx(slot), mid);
    fb.set(payloads.idx(slot), mid * 3);
    fb.if_else(slot * 2 + 1 < kNodes,
               [&] { fb.set(p["left"], nodes + ((slot * 2 + 1) * 1997 + 3) % kNodes); },
               [&] { fb.set(p["left"], 0); });
    fb.if_else(slot * 2 + 2 < kNodes,
               [&] { fb.set(p["right"], nodes + ((slot * 2 + 2) * 1997 + 3) % kNodes); },
               [&] { fb.set(p["right"], 0); });
    fb.if_(lo < mid, [&] {
      fb.set(work.idx(stacksz * 3), slot * 2 + 1);
      fb.set(work.idx(stacksz * 3 + 1), lo);
      fb.set(work.idx(stacksz * 3 + 2), mid);
      fb.set(stacksz, stacksz + 1);
    });
    fb.if_(mid + 1 < hi, [&] {
      fb.set(work.idx(stacksz * 3), slot * 2 + 2);
      fb.set(work.idx(stacksz * 3 + 1), mid + 1);
      fb.set(work.idx(stacksz * 3 + 2), hi);
      fb.set(stacksz, stacksz + 1);
    });
  });

  fb.set(acc, 0);
  fb.set(q, 0);
  fb.while_(q < kQueries, [&] {
    fb.set(i, (q * 48271 + 11) % kNodes);
    fb.set(acc, acc + fb.call(ptr_search, {nodes + Val(3), i}));
    fb.set(q, q + 1);
  });
  fb.set(q, 0);
  fb.while_(q < kQueries, [&] {
    fb.set(i, (q * 48271 + 11) % kNodes);
    fb.set(acc, acc - fb.call(array_search, {keys, payloads, Val(kNodes), i}));
    fb.set(q, q + 1);
  });
  fb.trace(acc);
  fb.ret(Val(0));
  return scc::compile(mod);
}

// --- the pinned digests ---------------------------------------------------------
// Order of event_totals: cycles, insts, icm, dcrm, dcwm, ecref, ecrm, ecstall,
// dtlbm (machine::HwEvent).

TEST(SimDigest, McfFig1EcstallEcrm) {
  expect_digest(mcf_fig1_digest("+ecstall,20011,+ecrm,211", "hi"),
                Digest{210130332u,
                       1109885239u,
                       {1109885239u, 210130332u, 315u, 10403795u, 1845254u, 20105360u,
                        2832886u, 594906060u, 1470368u},
                       {{"clock", 12331u}, {"ecrm", 13426u}, {"ecstall", 29728u}},
                       0xe9d977c6f73e64c4ull});
}

TEST(SimDigest, McfFig1EcrefDtlbm) {
  expect_digest(mcf_fig1_digest("+ecref,997,+dtlbm,101", "off"),
                Digest{210130332u,
                       1109885239u,
                       {1109885239u, 210130332u, 315u, 10403795u, 1845254u, 20105360u,
                        2832886u, 594906060u, 1470368u},
                       {{"dtlbm", 14558u}, {"ecref", 20165u}},
                       0x154b548422e8b8d5ull});
}

TEST(SimDigest, McfSmall) {
  expect_digest(workload_digest(opt::make_mcf_workload(/*small=*/true)),
                Digest{135217400u,
                       448697826u,
                       {448697826u, 135217400u, 315u, 6744793u, 1236987u, 13422844u, 237681u,
                        49913010u, 1373577u},
                       {{"clock", 4985u}, {"ecrm", 1126u}, {"ecstall", 2494u}},
                       0xb5c9a5e08737cce7ull});
}

TEST(SimDigest, Churn) {
  expect_digest(workload_digest(opt::make_churn_workload()),
                Digest{8640611u,
                       46133266u,
                       {46133266u, 8640611u, 16u, 960051u, 32u, 960155u, 5001u, 1050210u, 315u},
                       {{"clock", 512u}, {"ecrm", 49u}, {"ecstall", 104u}},
                       0xee63a112349af557ull});
}

TEST(SimDigest, MatrixTraversal) {
  expect_digest(collect_digest(matrix_traversal_image(), "+ecstall,on,+ecrm,hi", "hi",
                               example_machine()),
                Digest{16532090u,
                       164231783u,
                       {164231783u, 16532090u, 21u, 737289u, 10u, 737309u, 599044u, 125799240u,
                        148038u},
                       {{"clock", 1824u}, {"ecrm", 5931u}, {"ecstall", 1257u}},
                       0xce6562a31afce585ull});
}

TEST(SimDigest, CacheConsciousTree) {
  expect_digest(collect_digest(cache_conscious_tree_image(), "+ecstall,on,+ecrm,hi", "hi",
                               example_machine()),
                Digest{18447597u,
                       61963642u,
                       {61963642u, 18447597u, 60u, 282672u, 196644u, 897609u, 148131u, 31107510u,
                        195u},
                       {{"clock", 688u}, {"ecrm", 1466u}, {"ecstall", 311u}},
                       0x498e9066e935f7acull});
}

}  // namespace
}  // namespace dsprof
