#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <thread>

#include "util/bitset.hpp"
#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/per_thread.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace grx {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.next_in(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    lo_seen |= v == 3;
    hi_seen |= v == 5;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Stats, GeometricMean) {
  const double xs[] = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const double xs[] = {1.0, 0.0};
  EXPECT_THROW(geometric_mean(xs), CheckError);
}

TEST(Stats, MeanAndStddev) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(mean(xs), 5.0, 1e-12);
  EXPECT_NEAR(stddev(xs), 2.0, 1e-12);
}

TEST(Stats, Percentile) {
  const double xs[] = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_NEAR(percentile(xs, 0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 100), 4.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 50), 2.5, 1e-12);
}

TEST(Stats, Histogram) {
  const double xs[] = {0.1, 0.2, 0.6, 0.9, -1.0, 2.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // 0.1, 0.2
  EXPECT_EQ(h[1], 2u);  // 0.6, 0.9; out-of-range values dropped
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumFormatsNaNAsDash) {
  EXPECT_EQ(Table::num(std::nan("")), "--");
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--beta=x"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get("beta"), "x");
  EXPECT_EQ(cli.get("missing", "d"), "d");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, GetDouble) {
  const char* argv[] = {"prog", "--x=2.5"};
  Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(cli.get_double("y", 1.5), 1.5);
}

TEST(Cli, NumericGettersRejectBareFlagsAndGarbage) {
  // `--batch 16` leaves "16" positional and `--batch` bare: a numeric
  // getter must refuse it, naming the --key=value form, never read 1.
  const char* argv[] = {"prog", "--batch", "16",      "--scale=15x",
                        "--x=",  "--y=2.5", "--z=1e9999"};
  Cli cli(7, argv);
  EXPECT_TRUE(cli.has("batch"));
  for (const char* key : {"batch", "scale", "x", "z"}) {
    EXPECT_THROW((void)cli.get_int(key, 0), CheckError) << key;
    EXPECT_THROW((void)cli.get_double(key, 0.0), CheckError) << key;
  }
  try {
    (void)cli.get_int("batch", 1);
    FAIL() << "bare numeric flag accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--batch=<value>"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)cli.get_int("y", 0), CheckError) << "2.5 is no int";
  EXPECT_DOUBLE_EQ(cli.get_double("y", 0.0), 2.5);
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(AtomicBitset, SetTestCount) {
  AtomicBitset bs(130);
  EXPECT_EQ(bs.count(), 0u);
  bs.set(0);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 3u);
}

TEST(AtomicBitset, TestAndSetClaimsOnce) {
  AtomicBitset bs(10);
  EXPECT_TRUE(bs.test_and_set(5));
  EXPECT_FALSE(bs.test_and_set(5));
}

TEST(AtomicBitset, ConcurrentClaimsAreUnique) {
  AtomicBitset bs(1);
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      if (bs.test_and_set(0)) winners.fetch_add(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(AtomicBitset, ClearResets) {
  AtomicBitset bs(100);
  bs.set(42);
  bs.clear();
  EXPECT_EQ(bs.count(), 0u);
}

TEST(AtomicBitset, OutOfRangeThrows) {
  AtomicBitset bs(8);
  EXPECT_THROW(bs.test(8), CheckError);
}

TEST(PerThread, DrainConcatenates) {
  PerThread<std::vector<int>> pt;
  pt.local().push_back(1);
  pt.local().push_back(2);
  std::vector<int> out{0};
  pt.drain_into(out);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  // Buffers are cleared after drain.
  std::vector<int> out2;
  pt.drain_into(out2);
  EXPECT_TRUE(out2.empty());
}

}  // namespace
}  // namespace grx
