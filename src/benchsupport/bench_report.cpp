#include "benchsupport/bench_report.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace sbq {

Json table_to_json(const Table& t) {
  Json cols = Json::array();
  for (const auto& c : t.column_names()) cols.push_back(Json(c));
  Json rows = Json::array();
  for (const auto& row : t.rows()) {
    Json r = Json::array();
    for (const auto& cell : row) r.push_back(Json(cell));
    rows.push_back(std::move(r));
  }
  Json out = Json::object();
  out.set("columns", std::move(cols));
  out.set("rows", std::move(rows));
  return out;
}

BenchReport::BenchReport(std::string bench_name)
    : bench_(std::move(bench_name)),
      config_(Json::object()),
      tables_(Json::object()),
      cells_(Json::array()),
      extra_(Json::object()) {}

void BenchReport::set_config(const std::string& key, Json v) {
  config_.set(key, std::move(v));
}

void BenchReport::set_sweep_config(const BenchOptions& opts,
                                   const std::vector<int>& threads,
                                   unsigned long long ops, int repeats) {
  config_.set("seed", Json(static_cast<std::uint64_t>(opts.seed)));
  config_.set("ops_per_thread", Json(static_cast<std::uint64_t>(ops)));
  config_.set("repeats", Json(repeats));
  Json jt = Json::array();
  for (int t : threads) jt.push_back(Json(t));
  config_.set("threads", std::move(jt));
}

void BenchReport::add_table(const std::string& name, const Table& t) {
  tables_.set(name, table_to_json(t));
}

void BenchReport::add_cell(Json cell) { cells_.push_back(std::move(cell)); }

void BenchReport::set(const std::string& key, Json v) {
  extra_.set(key, std::move(v));
}

Json BenchReport::root() const {
  Json doc = Json::object();
  doc.set("schema", Json(kSchema));
  doc.set("bench", Json(bench_));
  doc.set("config", config_);
  for (const auto& kv : extra_.items()) doc.set(kv.first, kv.second);
  doc.set("tables", tables_);
  doc.set("cells", cells_);
  return doc;
}

bool BenchReport::write(const std::string& path) const {
  const std::string text = root().dump(2) + "\n";
  // Self-check before touching the filesystem: the artifact must re-parse
  // and still carry its schema tag.
  const Json back = Json::parse(text);
  if (back["schema"].as_string() != kSchema) {
    throw std::runtime_error("BenchReport: schema lost in round-trip");
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "BenchReport: cannot open " << path << " for writing\n";
    return false;
  }
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "BenchReport: write to " << path << " failed\n";
    return false;
  }
  return true;
}

}  // namespace sbq
