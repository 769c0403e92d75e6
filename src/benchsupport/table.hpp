// Table/CSV emitter for the benchmark harness: every fig*/ablation_* binary
// prints an aligned human-readable table by default and machine-readable CSV
// with --csv, matching the series the paper plots.
#pragma once

#include <charconv>
#include <cstddef>
#include <functional>
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

// Such a number that is also a count of at least `min`.
template <typename T>
T parse_count(const char* flag, std::string_view text, T min) {
  const T v = parse_number<T>(flag, text);
  if (v < min) {
    throw std::invalid_argument(std::string(flag) + " needs a count >= " +
                                std::to_string(min));
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

// A driver's own flag: its name and the parser of its value.
struct OwnFlag {
  std::string_view name;
  std::function<void(const char* value)> parse;
};

// One driver's flag declaration: the shared flags it reads (the fields of
// BenchOptions below) and its own flags. An own flag ending in '*' is a
// prefix whose arguments are left in argv for a library (native_queues'
// --benchmark_* flags, read by Google Benchmark).
struct DriverFlags {
  std::string_view driver;
  std::vector<std::string_view> shared;
  std::vector<std::string_view> own = {};
};

// Every driver's declaration, in one table. BenchOptions::parse reads a
// driver's row; a unit test checks README.md's flag table against it.
const std::vector<DriverFlags>& driver_flag_table();

// Shared CLI parsing for bench binaries. Each value flag takes its value
// as the next argument or after '=' (--json FILE, --json=FILE).
struct BenchOptions {
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
  std::string json_path;          // --json: BenchReport artifact
  std::string trace_path;         // --trace: JSONL coherence-event trace
  // Fault injection (sim drivers only; see docs/robustness.md):
  //   --fault-rate P    total injected-abort probability per transactional
  //                     attempt (split across capacity/interrupt/spurious);
  //                     0 (default) leaves the fault plan disabled.
  //   --fault-seed N    seed of the injection RNG streams.
  //   --fault-jitter M  bounded message-latency jitter up to M cycles.
  double fault_rate = 0.0;
  unsigned long long fault_seed = 1;
  unsigned long long fault_jitter = 0;
  int sockets = 0;                // --sockets: 0 => the driver's count
  // --from-snapshot (sim_microbench): run the measured phases on a machine
  // forked from a serialize/deserialize round-trip of the warmed snapshot
  // (the perf gate's third identity path).
  bool from_snapshot = false;
  // Op-level trace record/replay (docs/replay.md):
  //   --record-ops FILE  re-run one representative cell with op recording
  //                      and write the versioned trace to FILE.
  //   --replay-ops FILE  feed a recorded trace back as a sim workload under
  //                      this driver's machine flags.
  std::string record_ops;
  std::string replay_ops;

  // Parses argv against `driver`'s row of driver_flag_table(): a declared
  // shared flag fills its field, a declared own flag calls its parser in
  // `own`, and any other flag throws std::invalid_argument ("<flag> is not
  // supported", or "unknown option" if no driver declares it), so no driver
  // accepts a flag it would drop. Every driver also accepts
  // --snapshot-cache=off as a no-op, so scripts written for the removed
  // on-disk snapshot cache keep working (docs/performance.md).
  static BenchOptions parse(int argc, char** argv, std::string_view driver,
                            const std::vector<OwnFlag>& own = {});

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
  // For drivers that run one machine size: a --threads list is refused
  // rather than cut to its first entry.
  int thread_count_or(int dflt) const {
    if (threads.size() > 1) {
      throw std::invalid_argument("--threads takes one count, not a list");
    }
    return threads.empty() ? dflt : threads.front();
  }
};

}  // namespace sbq
