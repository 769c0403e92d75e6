// Tests for the benchmark harness support: table/CSV formatting, option
// parsing, sweeps, and cycle calibration.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"

namespace sbq {
namespace {

TEST(Table, AlignedOutput) {
  Table t({"a", "long_column", "b"});
  t.add_row({std::string("1"), "2", "3"});
  t.add_row({std::string("100"), "x", "yyyy"});
  std::ostringstream os;
  t.print(os, /*csv=*/false);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_column"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("yyyy"), std::string::npos);
  // Header + separator + 2 data rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({1.5, 2.25}, /*precision=*/2);
  std::ostringstream os;
  t.print(os, /*csv=*/true);
  EXPECT_EQ(os.str(), "x,y\n1.50,2.25\n");
}

TEST(Table, NumericPrecision) {
  Table t({"v"});
  t.add_row({3.14159}, 4);
  std::ostringstream os;
  t.print(os, true);
  EXPECT_NE(os.str().find("3.1416"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), std::invalid_argument);
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({std::string("1")});
  t.add_row({std::string("2")});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(BenchOptions, Defaults) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const BenchOptions o = BenchOptions::parse(1, argv);
  EXPECT_FALSE(o.csv);
  EXPECT_EQ(o.seed, 42ull);
  EXPECT_TRUE(o.threads.empty());
  EXPECT_EQ(o.ops, 0ull);
  EXPECT_EQ(o.repeats, 0);
}

TEST(BenchOptions, ParsesAllFlags) {
  char prog[] = "bench";
  char csv[] = "--csv";
  char seed[] = "--seed", seedv[] = "7";
  char ops[] = "--ops", opsv[] = "1000";
  char rep[] = "--repeats", repv[] = "5";
  char thr[] = "--threads", thrv[] = "1,4,44";
  // The removed on-disk snapshot cache's "off" mode, in both spellings, is
  // accepted as a no-op.
  char cache_eq[] = "--snapshot-cache=off";
  char cache[] = "--snapshot-cache", cachev[] = "off";
  char* argv[] = {prog, csv,  seed, seedv,    ops,   opsv,  rep,
                  repv, thr,  thrv, cache_eq, cache, cachev};
  const BenchOptions o = BenchOptions::parse(13, argv);
  EXPECT_TRUE(o.csv);
  EXPECT_EQ(o.seed, 7ull);
  EXPECT_EQ(o.ops, 1000ull);
  EXPECT_EQ(o.repeats, 5);
  EXPECT_EQ(o.threads, (std::vector<int>{1, 4, 44}));
}

TEST(BenchOptions, UnknownFlagThrows) {
  for (const char* flag :
       {"--bogus", "--snapshot-cache=rw", "--snapshot-cache=ro",
        "--snapshot-cache=bogus", "--policy-decay=half-life"}) {
    SCOPED_TRACE(flag);
    char prog[] = "bench";
    std::string bad = flag;
    char* argv[] = {prog, bad.data()};
    EXPECT_THROW(BenchOptions::parse(2, argv), std::invalid_argument);
  }
  // Removed flags (the commit-decay knob, the sharded machine's worker
  // count, directory slicing) are unknown options, not flags that swallow
  // their value.
  for (const auto& [flag, value] :
       {std::pair<const char*, const char*>{"--policy-decay", "half-life"},
        {"--machine-threads", "2"},
        {"--dir-slices", "4"}}) {
    SCOPED_TRACE(flag);
    char prog[] = "bench";
    std::string f = flag, v = value;
    char* argv[] = {prog, f.data(), v.data()};
    try {
      BenchOptions::parse(3, argv);
      ADD_FAILURE() << flag << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown option"),
                std::string::npos)
          << e.what();
    }
  }
  char prog[] = "bench";
  char cache[] = "--snapshot-cache", cachev[] = "rw";
  char* argv[] = {prog, cache, cachev};
  try {
    BenchOptions::parse(3, argv);
    ADD_FAILURE() << "--snapshot-cache rw parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }
}

TEST(BenchOptions, MissingValueThrows) {
  for (const char* flag : {"--seed", "--snapshot-cache"}) {
    SCOPED_TRACE(flag);
    char prog[] = "bench";
    std::string bad = flag;
    char* argv[] = {prog, bad.data()};
    EXPECT_THROW(BenchOptions::parse(2, argv), std::invalid_argument);
  }
}

TEST(BenchOptions, BadNumbersThrow) {
  // A zero thread count divides by zero in the drivers, an empty entry
  // would be a 0-thread row, and a non-numeric value must not pass as 0
  // (the driver default).
  for (const auto& [flag, value] :
       {std::pair<const char*, const char*>{"--threads", "0"},
        {"--threads", "abc"}, {"--threads", "2,,4"}, {"--threads", "2,4,"},
        {"--threads", ""}, {"--threads", "-1"}, {"--threads", "2.5"},
        {"--threads", "99999999999"}, {"--ops", "x"}, {"--ops", "10k"},
        {"--ops", "-5"}, {"--seed", "7.5"}, {"--repeats", "two"},
        {"--jobs", "4cores"}, {"--sockets", "2x"}, {"--fault-rate", "0.1%"},
        {"--fault-rate", "nan"}, {"--fault-seed", "abc"},
        {"--fault-jitter", "1e3"}, {"--policy-seed", "0x"}}) {
    SCOPED_TRACE(std::string(flag) + " " + value);
    char prog[] = "bench";
    std::string f = flag, v = value;
    char* argv[] = {prog, f.data(), v.data()};
    EXPECT_THROW(BenchOptions::parse(3, argv), std::invalid_argument);
  }
  char prog[] = "bench";
  char rate[] = "--fault-rate", ratev[] = "0.25";
  char* argv[] = {prog, rate, ratev};
  EXPECT_DOUBLE_EQ(BenchOptions::parse(3, argv).fault_rate, 0.25);
}

TEST(Sweeps, SingleSocketCoversPaperRange) {
  const auto sweep = default_single_socket_sweep();
  EXPECT_EQ(sweep.front(), 1);
  EXPECT_EQ(sweep.back(), 44);  // the Broadwell's hyperthread count
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i], sweep[i - 1]) << "sweep must be increasing";
  }
}

TEST(Sweeps, DualSocketEvenTotals) {
  const auto sweep = default_dual_socket_sweep();
  EXPECT_EQ(sweep.back(), 88);
  for (int t : sweep) EXPECT_EQ(t % 2, 0) << "mixed sweep splits evenly";
}

TEST(Sweeps, CycleCalibration) {
  // 2.5 GHz Broadwell all-core turbo: 0.4 ns per cycle.
  EXPECT_DOUBLE_EQ(ns_per_cycle(), 0.4);
}

}  // namespace
}  // namespace sbq
