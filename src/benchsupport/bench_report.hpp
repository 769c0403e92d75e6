// BenchReport: the machine-readable artifact every fig*/ablation_* driver
// writes with --json=FILE (BENCH_fig5.json and friends).
//
// Layout (schema "sbq.bench/1", documented in docs/observability.md):
//   {
//     "schema":  "sbq.bench/1",
//     "bench":   "<driver name>",
//     "config":  { ... sweep parameters: seed, ops, repeats, threads ... },
//     "tables":  { "<name>": {"columns": [...], "rows": [[...], ...]} },
//     "cells":   [ { per-cell record: config + latencies + counters }, ... ]
//   }
// `tables` mirrors the human/CSV output exactly (stringly typed, same
// formatting); `cells` carries raw per-cell measurements and counter
// snapshots for drivers that have them.
//
// write() serializes and then re-parses its own output as a self-check, so
// a malformed artifact fails loudly at the producer instead of at the first
// consumer.
#pragma once

#include <string>
#include <vector>

#include "benchsupport/json.hpp"
#include "benchsupport/table.hpp"

namespace sbq {

// The CSV-mirroring table encoding used inside BenchReport.
Json table_to_json(const Table& t);

class BenchReport {
 public:
  static constexpr const char* kSchema = "sbq.bench/1";

  explicit BenchReport(std::string bench_name);

  // Sweep configuration key (seed, ops, ...): one flat object.
  void set_config(const std::string& key, Json v);
  // The standard resolved sweep parameters (after per-driver defaults have
  // been applied) every driver records: seed, ops/thread, repeats, threads.
  void set_sweep_config(const BenchOptions& opts,
                        const std::vector<int>& threads,
                        unsigned long long ops, int repeats);

  // Add the CSV-equivalent of a result table under `name`.
  void add_table(const std::string& name, const Table& t);

  // Append one per-cell record (drivers with per-cell counters).
  void add_cell(Json cell);
  std::size_t cell_count() const { return cells_.size(); }

  // Extra top-level fields (e.g. "ns_per_cycle").
  void set(const std::string& key, Json v);

  // Assemble the full document.
  Json root() const;

  // Write to `path` (pretty-printed, trailing newline) and validate by
  // re-parsing. Returns false and reports on stderr if the file cannot be
  // written; throws std::runtime_error if the round-trip check fails (a
  // BenchReport bug, not an environment problem).
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  Json config_;
  Json tables_;
  Json cells_;
  Json extra_;
};

}  // namespace sbq
