#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "support/rng.hpp"

namespace dsprof::cache {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c({1024, 2, 32, true});
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101F, false).hit);   // same 32B line
  EXPECT_FALSE(c.access(0x1020, false).hit);  // next line
}

TEST(Cache, LruEviction) {
  // Direct-mapped 2-set cache, 32B lines: addresses 0, 64 map to set 0.
  Cache c({64, 1, 32, true});
  c.access(0, false);
  c.access(64, false);                     // evicts 0
  EXPECT_FALSE(c.access(0, false).hit);    // 0 was evicted
}

TEST(Cache, LruKeepsRecentlyUsed) {
  // 1 set, 2 ways, 32B lines. Lines A=0, B=64, C=128.
  Cache c({64, 2, 32, true});
  c.access(0, false);    // A
  c.access(64, false);   // B
  c.access(0, false);    // touch A (B is now LRU)
  c.access(128, false);  // C evicts B
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_FALSE(c.access(64, false).hit);
}

TEST(Cache, DirtyEvictionReported) {
  Cache c({64, 1, 32, true});
  c.access(0, true);  // write-allocate, dirty
  const CacheAccess r = c.access(64, false);
  EXPECT_TRUE(r.filled);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_addr, 0u);
}

TEST(Cache, WriteNoAllocateLeavesCacheUntouched) {
  Cache c({1024, 2, 32, false});
  const CacheAccess w = c.access(0x2000, true);
  EXPECT_FALSE(w.hit);
  EXPECT_FALSE(w.filled);
  EXPECT_FALSE(c.probe(0x2000));
  // But a write to a resident line hits and dirties it.
  c.access(0x2000, false);
  EXPECT_TRUE(c.access(0x2000, true).hit);
}

TEST(Cache, FillLineDoesNotCountAsAccess) {
  Cache c({1024, 2, 32, true});
  c.fill_line(0x3000);
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_EQ(c.prefetch_fills(), 1u);
  EXPECT_TRUE(c.access(0x3000, false).hit);
}

TEST(Cache, StatsConsistent) {
  Cache c({4096, 4, 64, true});
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) c.access(rng.below(1 << 16), false);
  EXPECT_EQ(c.accesses(), 10000u);
  EXPECT_EQ(c.hits() + c.misses(), c.accesses());
}

TEST(Cache, InvalidGeometryRejected) {
  EXPECT_THROW(Cache({1000, 2, 32, true}), Error);  // not divisible
  EXPECT_THROW(Cache({1024, 2, 33, true}), Error);  // line not pow2
}

struct Geometry {
  u64 size;
  u32 ways;
  u32 line;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, SequentialSweepMissesOncePerLine) {
  const Geometry g = GetParam();
  Cache c({g.size, g.ways, g.line, true});
  // Sweep exactly the cache capacity: every line misses once, then all hit.
  for (u64 a = 0; a < g.size; a += 8) c.access(a, false);
  EXPECT_EQ(c.misses(), g.size / g.line);
  const u64 m0 = c.misses();
  for (u64 a = 0; a < g.size; a += 8) c.access(a, false);
  EXPECT_EQ(c.misses(), m0);  // fits exactly: no more misses
}

TEST_P(CacheGeometry, WorkingSetTwiceCapacityThrashes) {
  const Geometry g = GetParam();
  Cache c({g.size, g.ways, g.line, true});
  for (int rep = 0; rep < 3; ++rep) {
    for (u64 a = 0; a < 2 * g.size; a += g.line) c.access(a, false);
  }
  // LRU + round-robin sweep over 2x capacity: every access misses.
  EXPECT_EQ(c.misses(), c.accesses());
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(Geometry{64 * 1024, 4, 32},      // US-III D$
                                           Geometry{8 * 1024 * 1024, 2, 512},  // US-III E$
                                           Geometry{1024, 1, 64},
                                           Geometry{16 * 1024, 8, 128}));

TEST(Tlb, MissThenHit) {
  Tlb t({64, 2, 8192});
  EXPECT_FALSE(t.lookup(0x10000));
  EXPECT_TRUE(t.lookup(0x10000));
  EXPECT_TRUE(t.lookup(0x10000 + 8191));  // same page
  EXPECT_FALSE(t.lookup(0x10000 + 8192));
}

TEST(Tlb, CoverageLimit) {
  Tlb t({64, 2, 8192});
  // Touch 128 pages round-robin: exceeds the 64-entry TLB; all miss.
  for (int rep = 0; rep < 2; ++rep) {
    for (u64 p = 0; p < 128; ++p) t.lookup(p * 8192);
  }
  EXPECT_EQ(t.misses(), t.accesses());
}

TEST(Tlb, LargePagesReduceMisses) {
  // The §3.3 -xpagesize_heap experiment in miniature: the same footprint
  // with 512 KB pages fits the 64-entry TLB, with 8 KB pages it does not.
  const u64 footprint = 16 * 1024 * 1024;
  Tlb small({64, 2, 8 * 1024});
  Tlb large({64, 2, 512 * 1024});
  Xoshiro256 rng(9);
  u64 small_misses = 0, large_misses = 0;
  for (int i = 0; i < 20000; ++i) {
    const u64 a = rng.below(footprint);
    if (!small.lookup(a)) ++small_misses;
    if (!large.lookup(a)) ++large_misses;
  }
  EXPECT_GT(small_misses, large_misses * 10);
}

// ---------------------------------------------------------------------------
// Differential test against a reference LRU cache

/// The cache model as it was before the MRU short-circuit: every access walks
/// its set and ticks the LRU clock. Kept verbatim as the oracle the
/// production Cache must match access for access.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg) : cfg_(cfg) {
    num_sets_ = cfg_.num_sets();
    line_bits_ = log2_exact(cfg_.line_size);
    set_bits_ = log2_exact(num_sets_);
    lines_.resize(num_sets_ * cfg_.ways);
  }

  CacheAccess access(u64 addr, bool write) {
    ++accesses_;
    const u64 set = set_index(addr);
    const u64 tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      Line& l = base[w];
      if (l.valid && l.tag == tag) {
        ++hits_;
        l.lru = ++tick_;
        if (write) l.dirty = true;
        CacheAccess r;
        r.hit = true;
        return r;
      }
    }
    // Miss.
    if (write && !cfg_.write_allocate) {
      return CacheAccess{};  // write-through no-allocate: nothing changes
    }
    return allocate(addr, write);
  }

  CacheAccess fill_line(u64 addr) {
    const u64 set = set_index(addr);
    const u64 tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) return CacheAccess{true, false, false, 0};
    }
    ++prefetch_fills_;
    return allocate(addr, /*write=*/false);
  }

  bool probe(u64 addr) const {
    const u64 set = set_index(addr);
    const u64 tag = tag_of(addr);
    const Line* base = &lines_[set * cfg_.ways];
    for (u32 w = 0; w < cfg_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  void invalidate_all() {
    for (auto& l : lines_) l = Line{};
  }

  u64 accesses() const { return accesses_; }
  u64 hits() const { return hits_; }
  u64 prefetch_fills() const { return prefetch_fills_; }

 private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    u64 lru = 0;
  };

  u64 set_index(u64 addr) const { return (addr >> line_bits_) & (num_sets_ - 1); }
  u64 tag_of(u64 addr) const { return addr >> (line_bits_ + set_bits_); }

  CacheAccess allocate(u64 addr, bool write) {
    const u64 set = set_index(addr);
    const u64 tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.ways];
    Line* victim = base;
    for (u32 w = 0; w < cfg_.ways; ++w) {
      Line& l = base[w];
      if (!l.valid) {
        victim = &l;
        break;
      }
      if (l.lru < victim->lru) victim = &l;
    }
    CacheAccess r;
    r.filled = true;
    if (victim->valid && victim->dirty) {
      r.evicted_dirty = true;
      r.evicted_addr = (victim->tag << (line_bits_ + set_bits_)) | (set << line_bits_);
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lru = ++tick_;
    return r;
  }

  CacheConfig cfg_;
  unsigned line_bits_;
  unsigned set_bits_;
  u64 num_sets_;
  std::vector<Line> lines_;
  u64 tick_ = 0;
  u64 accesses_ = 0;
  u64 hits_ = 0;
  u64 prefetch_fills_ = 0;
};

void expect_same(const CacheAccess& got, const CacheAccess& want, int op) {
  EXPECT_EQ(got.hit, want.hit) << "op " << op;
  EXPECT_EQ(got.filled, want.filled) << "op " << op;
  EXPECT_EQ(got.evicted_dirty, want.evicted_dirty) << "op " << op;
  EXPECT_EQ(got.evicted_addr, want.evicted_addr) << "op " << op;
}

/// A seeded address stream over 4x the cache's lines, half of it repeats of
/// the previous line (the MRU short-circuit's case), with random offsets
/// inside the line.
class AddrStream {
 public:
  AddrStream(u64 seed, u64 lines, u32 line_size)
      : rng_(seed), lines_(lines), line_size_(line_size) {}
  u64 next() {
    if (rng_.below(2) == 0) line_ = rng_.below(lines_);
    return line_ * line_size_ + rng_.below(line_size_);
  }
  u64 below(u64 n) { return rng_.below(n); }

 private:
  Xoshiro256 rng_;
  u64 lines_;
  u32 line_size_;
  u64 line_ = 0;
};

struct DiffCase {
  u32 ways;
  bool write_allocate;
};

class CacheDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CacheDifferential, MatchesReferenceLruAfterEveryOperation) {
  const DiffCase dc = GetParam();
  const CacheConfig cfg{u64{16} * dc.ways * 32, dc.ways, 32, dc.write_allocate};  // 16 sets
  Cache c(cfg);
  RefCache ref(cfg);
  AddrStream s(0xD1FF + dc.ways * 2 + dc.write_allocate, 4 * 16 * dc.ways, cfg.line_size);
  for (int op = 0; op < 200000; ++op) {
    const u64 kind = s.below(100);
    const u64 addr = s.next();
    if (kind < 45) {
      expect_same(c.access(addr, false), ref.access(addr, false), op);
    } else if (kind < 85) {
      expect_same(c.access(addr, true), ref.access(addr, true), op);
    } else if (kind < 94) {
      expect_same(c.fill_line(addr), ref.fill_line(addr), op);
    } else if (kind < 99) {
      EXPECT_EQ(c.probe(addr), ref.probe(addr)) << "op " << op;
    } else if (s.below(20) == 0) {
      c.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_EQ(c.accesses(), ref.accesses()) << "op " << op;
    ASSERT_EQ(c.hits(), ref.hits()) << "op " << op;
    ASSERT_EQ(c.prefetch_fills(), ref.prefetch_fills()) << "op " << op;
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(WaysAndWritePolicy, CacheDifferential,
                         ::testing::Values(DiffCase{1, true}, DiffCase{1, false},
                                           DiffCase{2, true}, DiffCase{2, false},
                                           DiffCase{4, true}, DiffCase{4, false}),
                         [](const ::testing::TestParamInfo<DiffCase>& i) {
                           return "ways" + std::to_string(i.param.ways) +
                                  (i.param.write_allocate ? "_allocate" : "_no_allocate");
                         });

TEST(CacheDifferential, TlbMatchesReferenceLru) {
  const TlbConfig tcfg{16, 2, 8192};
  Tlb t(tcfg);
  CacheConfig cfg;
  cfg.line_size = 8192;
  cfg.ways = 2;
  cfg.size_bytes = u64{16} * 8192;
  RefCache ref(cfg);
  AddrStream s(0x7100, 4 * 16, 8192);
  for (int op = 0; op < 100000; ++op) {
    const u64 kind = s.below(100);
    const u64 addr = s.next();
    if (kind < 90) {
      ASSERT_EQ(t.lookup(addr), ref.access(addr, false).hit) << "op " << op;
    } else if (kind < 99) {
      ASSERT_EQ(t.probe(addr), ref.probe(addr)) << "op " << op;
    } else {
      t.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_EQ(t.accesses(), ref.accesses()) << "op " << op;
    ASSERT_EQ(t.misses(), ref.accesses() - ref.hits()) << "op " << op;
  }
}

// ---------------------------------------------------------------------------
// Hierarchy

TEST(Hierarchy, LoadMissCountsEcRefAndRdMiss) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  const AccessOutcome out = h.load(0x10000);
  EXPECT_TRUE(out.dc_rd_miss);
  EXPECT_TRUE(out.ec_ref);
  EXPECT_TRUE(out.ec_rd_miss);
  EXPECT_TRUE(out.dtlb_miss);
  EXPECT_GT(out.stall_cycles, 200u);
  EXPECT_EQ(out.ec_stall_cycles, h.config().ec_miss_cycles);

  const AccessOutcome again = h.load(0x10000);
  EXPECT_FALSE(again.dc_rd_miss);
  EXPECT_FALSE(again.ec_ref);
  EXPECT_FALSE(again.dtlb_miss);
  EXPECT_EQ(again.stall_cycles, h.config().dc_hit_cycles);
}

TEST(Hierarchy, StoreIsWriteThrough) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  const AccessOutcome st = h.store(0x20000);
  EXPECT_TRUE(st.ec_ref);        // every store reaches the E$
  EXPECT_TRUE(st.dc_wr_miss);    // no write-allocate in D$
  EXPECT_FALSE(st.ec_rd_miss);   // write misses are not read misses
  EXPECT_EQ(st.ec_stall_cycles, 0u);  // hidden by the store buffer
  // The store allocated in E$ but not D$: a load still misses D$, hits E$.
  const AccessOutcome ld = h.load(0x20000);
  EXPECT_TRUE(ld.dc_rd_miss);
  EXPECT_FALSE(ld.ec_rd_miss);
}

TEST(Hierarchy, DcHitAfterLoadFill) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  h.load(0x30000);
  const AccessOutcome st = h.store(0x30000);
  EXPECT_FALSE(st.dc_wr_miss);  // line resident: write-through hit
  EXPECT_TRUE(st.ec_ref);
}

TEST(Hierarchy, StreamPrefetchHidesSequentialMisses) {
  HierarchyConfig cfg = HierarchyConfig::ultrasparc3();
  cfg.ec_stream_prefetch = true;
  MemoryHierarchy with(cfg);
  cfg.ec_stream_prefetch = false;
  MemoryHierarchy without(cfg);
  u64 miss_with = 0, miss_without = 0;
  for (u64 a = 0x100000; a < 0x100000 + (1 << 22); a += 32) {
    if (with.load(a).ec_rd_miss) ++miss_with;
    if (without.load(a).ec_rd_miss) ++miss_without;
  }
  EXPECT_LT(miss_with, miss_without / 4);
}

TEST(Hierarchy, PrefetchInstructionFillsEc) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  // Prefetch requires a resident TLB entry; warm it with a nearby load.
  h.load(0x40000);
  const AccessOutcome pf = h.prefetch(0x40000 + 512);
  EXPECT_TRUE(pf.ec_ref);
  EXPECT_EQ(pf.stall_cycles, 0u);
  const AccessOutcome ld = h.load(0x40000 + 512);
  EXPECT_FALSE(ld.ec_rd_miss);  // prefetched into E$ (and D$)
  EXPECT_FALSE(ld.dc_rd_miss);
}

TEST(Hierarchy, PrefetchDroppedOnTlbMiss) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  const AccessOutcome pf = h.prefetch(0x7F0000);
  EXPECT_FALSE(pf.ec_ref);
  EXPECT_FALSE(pf.dtlb_miss);  // aborted, not counted
  EXPECT_TRUE(h.load(0x7F0000).ec_rd_miss);
}

TEST(Hierarchy, FetchMissesOncePerLine) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  EXPECT_TRUE(h.fetch(0x100000000ull).ic_miss);
  EXPECT_FALSE(h.fetch(0x100000004ull).ic_miss);  // same line, sequential
  EXPECT_TRUE(h.fetch(0x100000020ull).ic_miss);
}

}  // namespace
}  // namespace dsprof::cache
