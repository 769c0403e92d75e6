// Table/CSV emitter for the benchmark harness: every fig*/ablation_* binary
// prints an aligned human-readable table by default and machine-readable CSV
// with --csv, matching the series the paper plots.
#pragma once

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sbq {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  void add_row(const std::vector<double>& cells, int precision = 2);

  // Progress streaming for long sweeps (pretty mode only): prints the
  // header immediately and echoes every subsequent add_row to `os` with
  // fixed column widths, so each row appears as soon as its sweep cells
  // complete instead of after the whole sweep. print() on a streaming
  // table is then a no-op in pretty mode (the rows are already out);
  // --csv output is unaffected — CSV callers never enable streaming.
  void stream_to(std::ostream& os);

  void print(std::ostream& os, bool csv) const;

  std::size_t row_count() const noexcept { return rows_.size(); }
  const std::vector<std::string>& column_names() const noexcept { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

 private:
  void print_aligned_row(std::ostream& os, const std::vector<std::string>& row,
                         const std::vector<std::size_t>& widths) const;

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::ostream* stream_ = nullptr;       // non-null => streaming enabled
  std::vector<std::size_t> stream_widths_;
};

// The one parser for numeric flag values: the value must be a number in
// full. Empty, non-numeric, out-of-range or partly numeric text ("12x",
// "2.5" for an integer, "-1" for an unsigned one) throws
// std::invalid_argument naming `flag`, instead of quietly becoming 0 or a
// prefix.
template <typename T>
T parse_number(const char* flag, std::string_view text) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last) {
    throw std::invalid_argument(std::string(flag) + " needs a number, got '" +
                                std::string(text) + "'");
  }
  return v;
}

// A comma-separated list of such numbers: an empty entry ("2,,4", a
// trailing comma, an empty list) throws like any other bad number.
template <typename T>
std::vector<T> parse_number_list(const char* flag, std::string_view list) {
  std::vector<T> out;
  for (;;) {
    const std::size_t comma = list.find(',');
    out.push_back(parse_number<T>(flag, list.substr(0, comma)));
    if (comma == std::string_view::npos) return out;
    list.remove_prefix(comma + 1);
  }
}

// Shared CLI parsing for bench binaries: recognizes --csv, --seed N,
// --threads LIST (comma separated), --ops N, --repeats N, --jobs N,
// --cold-start, --json FILE (BenchReport artifact) and --trace
// FILE (JSONL coherence-event trace); --json/--trace also accept the
// --opt=FILE form.
struct BenchOptions {
  // Shared flags only some drivers act on, by family. A driver passes the
  // families it honours to parse(); a flag of any other family is an
  // error ("<flag> is not supported"), not a silent no-op.
  enum FlagFamily : unsigned {
    kOpTraceFlags = 1u << 0,      // --record-ops, --replay-ops
    kEventTraceFlag = 1u << 1,    // --trace
    kFaultFlags = 1u << 2,        // --fault-rate, --fault-seed, --fault-jitter
    kFromSnapshotFlag = 1u << 3,  // --from-snapshot
    kAllFlagFamilies = (1u << 4) - 1,
  };

  bool csv = false;
  unsigned long long seed = 42;
  std::vector<int> threads;       // empty => binary default sweep
  unsigned long long ops = 0;     // 0 => binary default
  int repeats = 0;                // 0 => binary default
  int jobs = 0;                   // 0 => default_sweep_jobs()
  // Warm every sweep cell from scratch instead of forking repeats from a
  // shared warmed snapshot. Output must be byte-identical either way (the
  // golden tests run fig6 both ways against one baseline); this flag exists
  // to keep that equivalence checkable and to time the warm-up savings.
  bool cold_start = false;
  std::string json_path;          // empty => no JSON artifact
  std::string trace_path;         // empty => no event trace
  // Fault injection (sim drivers only; see docs/robustness.md):
  //   --fault-rate P    total injected-abort probability per transactional
  //                     attempt (split across capacity/interrupt/spurious);
  //                     0 (default) leaves the fault plan disabled.
  //   --fault-seed N    seed of the injection RNG streams.
  //   --fault-jitter M  bounded message-latency jitter up to M cycles.
  double fault_rate = 0.0;
  unsigned long long fault_seed = 1;
  unsigned long long fault_jitter = 0;
  // Machine shape (sim drivers only):
  //   --sockets N          override the driver's socket count.
  int sockets = 0;
  //   --from-snapshot  sim_microbench only: run the measured phases on a
  //                    machine forked from a serialize/deserialize
  //                    round-trip of the warmed snapshot (the perf gate's
  //                    third identity path).
  //   --snapshot-cache=off  accepted and ignored, so scripts written for
  //                    the removed on-disk snapshot cache keep working
  //                    (docs/performance.md); any other value throws.
  bool from_snapshot = false;
  // Op-level trace record/replay (docs/replay.md):
  //   --record-ops FILE  re-run one representative cell with op recording
  //                      and write the versioned trace to FILE.
  //   --replay-ops FILE  feed a recorded trace back as a sim workload under
  //                      this driver's machine flags.
  // Both accept the --opt=FILE form; both empty by default so every
  // artifact stays byte-identical to the goldens.
  std::string record_ops;
  std::string replay_ops;
  static BenchOptions parse(int argc, char** argv,
                            unsigned honoured = kAllFlagFamilies);

  // Worker threads for the sweep pool: --jobs N when given, otherwise
  // hardware_concurrency.
  int effective_jobs() const;

  // Per-driver default fallbacks — the one place the "N means the binary's
  // default" convention lives, instead of a drifted copy per driver.
  unsigned long long ops_or(unsigned long long dflt) const {
    return ops == 0 ? dflt : ops;
  }
  int repeats_or(int dflt) const { return repeats == 0 ? dflt : repeats; }
  std::vector<int> threads_or(std::vector<int> dflt) const {
    return threads.empty() ? std::move(dflt) : threads;
  }
  int first_thread_or(int dflt) const {
    return threads.empty() ? dflt : threads.front();
  }
};

}  // namespace sbq
