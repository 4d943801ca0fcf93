#include <gtest/gtest.h>

#include <set>

#include "support/bytestream.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "temp_dir.hpp"

namespace dsprof {
namespace {

TEST(SignExtend, Basics) {
  EXPECT_EQ(sign_extend(0x7FFF, 15), -1);
  EXPECT_EQ(sign_extend(0x3FFF, 15), 0x3FFF);
  EXPECT_EQ(sign_extend(0x4000, 15), -16384);
  EXPECT_EQ(sign_extend(0, 15), 0);
  EXPECT_EQ(sign_extend(0xFFFFF, 20), -1);
}

TEST(FitsSigned, Boundaries) {
  EXPECT_TRUE(fits_signed(16383, 15));
  EXPECT_FALSE(fits_signed(16384, 15));
  EXPECT_TRUE(fits_signed(-16384, 15));
  EXPECT_FALSE(fits_signed(-16385, 15));
}

TEST(RoundUp, Basics) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 16), 16u);
}

TEST(Log2Exact, PowersOfTwo) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(512), 9u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(120));
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange) {
  Xoshiro256 r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(10), 10u);
  }
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 r(2);
  std::set<i64> seen;
  for (int i = 0; i < 200; ++i) {
    const i64 v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(DspCheck, MessageIsIndependentOfTheBuildLocation) {
  // DSP_CHECK messages name the failing line as src/..., whatever directory
  // the tree was built in (the build maps the source root away).
  Xoshiro256 r(3);
  try {
    r.below(0);
    FAIL() << "below(0) must fail its DSP_CHECK";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/support/rng.hpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find(DSPROF_SOURCE_DIR), std::string::npos) << what;
  }
}

TEST(NextPrime, KnownValues) {
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(10), 11u);
  EXPECT_EQ(next_prime(900000), 900001u);
  EXPECT_EQ(next_prime(100), 101u);
  EXPECT_EQ(next_prime(1000000), 1000003u);
}

class NextPrimeSweep : public ::testing::TestWithParam<u64> {};

TEST_P(NextPrimeSweep, ReturnsPrimeAtLeastN) {
  const u64 n = GetParam();
  const u64 p = next_prime(n);
  EXPECT_GE(p, n);
  for (u64 f = 2; f * f <= p; ++f) EXPECT_NE(p % f, 0u) << p << " divisible by " << f;
}

INSTANTIATE_TEST_SUITE_P(Sweep, NextPrimeSweep,
                         ::testing::Values(3, 17, 100, 501, 9999, 65536, 123457, 1u << 20));

TEST(ByteStream, RoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x123456789ABCDEFull);
  w.put_i64(-42);
  w.put_string("hello");
  w.put_f64(3.25);
  const std::vector<u8> data = {1, 2, 3};
  w.put_blob(data.data(), data.size());

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_blob(), data);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteStream, UnderrunThrows) {
  ByteWriter w;
  w.put_u8(1);
  ByteReader r(w.bytes());
  r.get_u8();
  EXPECT_THROW(r.get_u32(), Error);
}

TEST(ByteStream, FileRoundTrip) {
  const testfix::TempDir tmp;
  const std::string path = tmp / "bytestream.bin";
  std::vector<u8> data = {9, 8, 7, 6};
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"A", "Name"}, {Align::Right, Align::Left});
  t.add_row({"1", "x"});
  t.add_row({"100", "yyy"});
  const std::string out = t.render();
  EXPECT_NE(out.find("  1  x"), std::string::npos);
  EXPECT_NE(out.find("100  yyy"), std::string::npos);
}

TEST(TextTable, RejectsWrongCellCount) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_percent(0.513), "51.3");
  EXPECT_EQ(fmt_count(1580927631ull), "1,580,927,631");
  EXPECT_EQ(fmt_fixed(1.2345, 3), "1.234");
  EXPECT_EQ(fmt_count(7), "7");
}

}  // namespace
}  // namespace dsprof
