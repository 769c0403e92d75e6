// Json value/writer/parser unit coverage plus BenchReport round-trips: a
// tiny sweep's artifact is written to disk, re-parsed, and checked against
// the sbq.bench/1 schema (docs/observability.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/json.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/table.hpp"
#include "sim/stats.hpp"

namespace sbq {
namespace {

TEST(Json, ScalarsAndDump) {
  EXPECT_EQ(Json().dump(-1), "null");
  EXPECT_EQ(Json(true).dump(-1), "true");
  EXPECT_EQ(Json(false).dump(-1), "false");
  EXPECT_EQ(Json(42).dump(-1), "42");
  EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(-1), "1099511627776");
  EXPECT_EQ(Json(2.5).dump(-1), "2.5");
  EXPECT_EQ(Json("hi").dump(-1), "\"hi\"");
  // Control characters and quotes are escaped.
  EXPECT_EQ(Json("a\"b\n").dump(-1), "\"a\\\"b\\n\"");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json o = Json::object();
  o.set("z", Json(1));
  o.set("a", Json(2));
  o.set("z", Json(3));  // replaces in place, keeps position
  EXPECT_EQ(o.dump(-1), "{\"z\":3,\"a\":2}");
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("missing"));
  EXPECT_TRUE(o["missing"].is_null());
  EXPECT_EQ(o["z"].as_int(), 3);
}

TEST(Json, ParseRoundTrip) {
  const std::string doc =
      R"({"s":"x","n":-1.5,"i":7,"b":true,"nil":null,"a":[1,[2],{"k":3}]})";
  const Json j = Json::parse(doc);
  EXPECT_EQ(j["s"].as_string(), "x");
  EXPECT_DOUBLE_EQ(j["n"].as_double(), -1.5);
  EXPECT_EQ(j["i"].as_int(), 7);
  EXPECT_TRUE(j["b"].as_bool());
  EXPECT_TRUE(j["nil"].is_null());
  ASSERT_EQ(j["a"].size(), 3u);
  EXPECT_EQ(j["a"].at(1).at(0).as_int(), 2);
  EXPECT_EQ(j["a"].at(2)["k"].as_int(), 3);
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(j.dump(-1)).dump(-1), j.dump(-1));
  EXPECT_EQ(Json::parse(j.dump(2)).dump(-1), j.dump(-1));
}

TEST(Json, ParseStringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\n\tA");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("nan"), std::runtime_error);
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(inf).dump(-1), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(-1), "null");
}

TEST(TableToJson, ColumnsAndRows) {
  Table t({"a", "b"});
  t.add_row(std::vector<std::string>{"1", "x"});
  t.add_row(std::vector<std::string>{"2", "y"});
  const Json j = table_to_json(t);
  ASSERT_EQ(j["columns"].size(), 2u);
  EXPECT_EQ(j["columns"].at(0).as_string(), "a");
  ASSERT_EQ(j["rows"].size(), 2u);
  EXPECT_EQ(j["rows"].at(1).at(1).as_string(), "y");
}

TEST(MetricsJson, SnapshotSchema) {
  sim::MetricsSnapshot snap;
  snap.protocol.gets = 3;
  snap.htm.calls = 2;
  snap.htm.aborts[static_cast<int>(sim::AbortCause::kTrippedWriter)] = 1;
  snap.basket.closes = 0;
  snap.messages = 9;
  const Json j = metrics_to_json(snap);
  EXPECT_EQ(j["protocol"]["gets"].as_int(), 3);
  EXPECT_EQ(j["htm"]["calls"].as_int(), 2);
  EXPECT_EQ(j["htm"]["aborts"]["tripped_writer"].as_int(), 1);
  // No closes -> occupancy_min reported as 0, not UINT64_MAX.
  EXPECT_EQ(j["basket"]["occupancy_min"].as_int(), 0);
  EXPECT_EQ(j["messages"].as_int(), 9);
  ASSERT_EQ(j["htm"]["retry_histogram"].size(),
            static_cast<std::size_t>(sim::HtmCounters::kRetryBuckets));
}

TEST(BenchReport, WriteAndReparseTinySweep) {
  const std::string path =
      testing::TempDir() + "/bench_json_test_artifact.json";
  BenchOptions opts;
  opts.seed = 7;
  {
    BenchReport report("tiny_sweep");
    report.set_sweep_config(opts, /*threads=*/{1, 2}, /*ops=*/20,
                            /*repeats=*/1);
    report.set("ns_per_cycle", Json(0.4));
    Table t({"threads", "latency_ns"});
    t.add_row(std::vector<std::string>{"1", "10.5"});
    t.add_row(std::vector<std::string>{"2", "20.5"});
    report.add_table("latency", t);
    for (int threads : {1, 2}) {
      Json cell = Json::object();
      cell.set("threads", Json(threads));
      cell.set("latency_ns", Json(threads * 10.5));
      cell.set("counters", metrics_to_json(sim::MetricsSnapshot{}));
      report.add_cell(std::move(cell));
    }
    ASSERT_EQ(report.cell_count(), 2u);
    ASSERT_TRUE(report.write(path));
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const Json root = Json::parse(buf.str());

  // sbq.bench/1 required keys.
  EXPECT_EQ(root["schema"].as_string(), BenchReport::kSchema);
  EXPECT_EQ(root["bench"].as_string(), "tiny_sweep");
  EXPECT_EQ(root["config"]["seed"].as_int(), 7);
  EXPECT_EQ(root["config"]["ops_per_thread"].as_int(), 20);
  EXPECT_EQ(root["config"]["repeats"].as_int(), 1);
  ASSERT_EQ(root["config"]["threads"].size(), 2u);
  EXPECT_EQ(root["config"]["threads"].at(1).as_int(), 2);
  EXPECT_DOUBLE_EQ(root["ns_per_cycle"].as_double(), 0.4);
  ASSERT_TRUE(root["tables"].is_object());
  EXPECT_EQ(root["tables"]["latency"]["columns"].size(), 2u);
  EXPECT_EQ(root["tables"]["latency"]["rows"].size(), 2u);
  ASSERT_EQ(root["cells"].size(), 2u);
  EXPECT_EQ(root["cells"].at(1)["threads"].as_int(), 2);
  EXPECT_DOUBLE_EQ(root["cells"].at(1)["latency_ns"].as_double(), 21.0);
  EXPECT_TRUE(root["cells"].at(0)["counters"]["htm"].is_object());

  std::remove(path.c_str());
}

TEST(BenchReport, WriteFailsOnBadPath) {
  BenchReport report("unwritable");
  EXPECT_FALSE(report.write("/nonexistent-dir/nope/artifact.json"));
}

}  // namespace
}  // namespace sbq
