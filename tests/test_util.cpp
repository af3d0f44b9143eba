// Tests for the utility layer: RNG determinism and distributions, running
// statistics, median, and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/tableio.hpp"

namespace tw {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(12);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.uniform01());
  EXPECT_NEAR(st.mean(), 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, OneOrTwoMatchesPaperRatio) {
  // r = p/(1-p); with r = 10 expect ~10x more 1s than 2s.
  Rng rng(14);
  const double p = 10.0 / 11.0;
  int ones = 0, twos = 0;
  for (int i = 0; i < 22000; ++i)
    (rng.one_or_two(p) == 1 ? ones : twos)++;
  EXPECT_NEAR(static_cast<double>(ones) / twos, 10.0, 1.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(15);
  RunningStats st;
  for (int i = 0; i < 40000; ++i) st.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalPositive) {
  Rng rng(16);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(2.0, 0.5), 0.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng b(42);
  Rng child_b = b.split();
  EXPECT_EQ(child(), child_b());  // deterministic
  EXPECT_NE(child(), a());        // but a different stream
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // The published 64-bit FNV-1a check values; the byte and text forms
  // agree.
  EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ull);
  const std::uint8_t bytes[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(fnv1a(std::span<const std::uint8_t>(bytes)),
            0x85944171f73967e8ull);
}

TEST(RunningStats, Empty) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStats, ClearResets) {
  RunningStats st;
  st.add(1.0);
  st.clear();
  EXPECT_EQ(st.count(), 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
}

TEST(AcceptanceCounter, Rates) {
  AcceptanceCounter ac;
  ac.record(true);
  ac.record(false);
  ac.record(true);
  EXPECT_EQ(ac.attempted, 3u);
  EXPECT_EQ(ac.accepted, 2u);
  EXPECT_NEAR(ac.rate(), 2.0 / 3.0, 1e-12);
  ac.clear();
  EXPECT_EQ(ac.rate(), 0.0);
}

TEST(Table, AlignsColumnsAndFormats) {
  Table t({"name", "value"});
  t.add_row({"x", Table::num(1.5, 2)});
  t.add_row({"longer", Table::percent(12.345, 1)});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("12.3%"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.str().find("only"), std::string::npos);
}

TEST(Table, IntegerFormat) {
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::integer(1234567), "1234567");
}

}  // namespace
}  // namespace tw
