#include "benchsupport/table.hpp"

#include "benchsupport/parallel_sweep.hpp"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sbq {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument("Table::add_row: cell count != column count");
  }
  rows_.push_back(std::move(cells));
  if (stream_ != nullptr) {
    print_aligned_row(*stream_, rows_.back(), stream_widths_);
    stream_->flush();
  }
}

void Table::add_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (double v : cells) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    out.push_back(ss.str());
  }
  add_row(std::move(out));
}

void Table::print_aligned_row(std::ostream& os,
                              const std::vector<std::string>& row,
                              const std::vector<std::size_t>& widths) const {
  for (std::size_t c = 0; c < row.size(); ++c) {
    os << std::setw(static_cast<int>(widths[c])) << row[c]
       << (c + 1 < row.size() ? "  " : "\n");
  }
}

void Table::stream_to(std::ostream& os) {
  stream_ = &os;
  // Widths are fixed up front (rows are not known yet): wide enough for the
  // header and for typical formatted numbers.
  constexpr std::size_t kMinStreamWidth = 8;
  stream_widths_.assign(columns_.size(), kMinStreamWidth);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    stream_widths_[c] = std::max(stream_widths_[c], columns_[c].size());
  }
  print_aligned_row(os, columns_, stream_widths_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << std::string(stream_widths_[c], '-')
       << (c + 1 < columns_.size() ? "  " : "\n");
  }
  for (const auto& row : rows_) print_aligned_row(os, row, stream_widths_);
  os.flush();
}

void Table::print(std::ostream& os, bool csv) const {
  if (csv) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << row[c] << (c + 1 < row.size() ? "," : "\n");
      }
    }
    return;
  }
  if (stream_ == &os) return;  // rows were already streamed to this sink
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  print_aligned_row(os, columns_, widths);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << std::string(widths[c], '-') << (c + 1 < columns_.size() ? "  " : "\n");
  }
  for (const auto& row : rows_) print_aligned_row(os, row, widths);
}

namespace {

bool has(const std::vector<std::string_view>& names, std::string_view name) {
  return std::ranges::find(names, name) != names.end();
}

}  // namespace

// Each row names only the flags its driver reads, directly or through
// sim_machine_config, set_sweep_config, run_queue_sweep and
// write_cell_artifacts. README.md's flag table mirrors it.
const std::vector<DriverFlags>& driver_flag_table() {
  static const std::vector<DriverFlags> table{
      {"fig1_txcas_vs_faa",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--trace", "--sockets", "--fault-rate", "--fault-seed",
        "--fault-jitter"}},
      {"fig2_coherence_dynamics",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--trace"}},
      {"fig3_tripped_writer",
       {"--csv", "--json", "--seed", "--jobs", "--trace"}},
      {"fig5_enqueue",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--cold-start", "--trace", "--record-ops", "--replay-ops",
        "--sockets", "--fault-rate", "--fault-seed", "--fault-jitter"}},
      {"fig6_dequeue",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--cold-start", "--trace", "--record-ops", "--replay-ops",
        "--sockets", "--fault-rate", "--fault-seed", "--fault-jitter"}},
      {"fig7_mixed",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--cold-start", "--trace", "--record-ops", "--replay-ops",
        "--sockets", "--fault-rate", "--fault-seed", "--fault-jitter"}},
      {"ablation_delay_sweep",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops", "--trace",
        "--sockets", "--fault-rate", "--fault-seed", "--fault-jitter"}},
      {"ablation_numa",
       {"--csv", "--json", "--seed", "--jobs", "--ops", "--trace"}},
      {"ablation_basket_size",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--trace", "--record-ops", "--replay-ops", "--sockets",
        "--fault-rate", "--fault-seed", "--fault-jitter"}},
      {"ablation_uarch_fix",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--trace", "--record-ops", "--replay-ops", "--sockets",
        "--fault-rate", "--fault-seed", "--fault-jitter"}},
      {"ablation_striped_basket",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops",
        "--repeats", "--trace", "--sockets", "--fault-rate", "--fault-seed",
        "--fault-jitter"}},
      {"ablation_fault_sweep",
       {"--csv", "--json", "--seed", "--jobs", "--threads", "--ops", "--trace",
        "--record-ops", "--replay-ops", "--sockets", "--fault-seed",
        "--fault-jitter"}},
      {"engine_microbench",
       {"--csv", "--json", "--threads", "--ops", "--repeats"}},
      {"sim_microbench",
       {"--csv", "--json", "--threads", "--ops", "--repeats", "--trace",
        "--sockets", "--fault-rate", "--fault-seed", "--fault-jitter",
        "--from-snapshot"}},
      {"service_latency",
       {"--csv", "--json", "--seed", "--jobs", "--ops", "--repeats",
        "--cold-start", "--sockets", "--fault-rate", "--fault-seed",
        "--fault-jitter"},
       {"--rates", "--depth", "--producers", "--consumers", "--batch",
        "--think"}},
      {"native_queues",
       {},
       {"--record-ops", "--record-threads", "--record-pairs", "--record-seed",
        "--benchmark_*"}},
  };
  return table;
}

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 std::string_view driver,
                                 const std::vector<OwnFlag>& own) {
  const auto& table = driver_flag_table();
  const auto decl = std::ranges::find(table, driver, &DriverFlags::driver);
  if (decl == table.end()) {
    throw std::logic_error(std::string(driver) + " has no flag declaration");
  }
  // Whether `arg` starts with a declared prefix ("--benchmark_*").
  auto prefixed = [&](std::string_view arg) {
    return std::ranges::any_of(decl->own, [&](std::string_view p) {
      return p.ends_with('*') && arg.starts_with(p.substr(0, p.size() - 1));
    });
  };
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (prefixed(arg)) continue;  // left in argv for the library to read
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    auto value = [&]() -> const char* {
      if (eq != std::string_view::npos) return argv[i] + eq + 1;
      if (i + 1 >= argc) throw std::invalid_argument(name + " needs a value");
      return argv[++i];
    };
    if (has(decl->own, name)) {
      const auto parser = std::ranges::find(own, name, &OwnFlag::name);
      if (parser == own.end()) {
        throw std::logic_error(std::string(driver) + ": no parser for " + name);
      }
      parser->parse(value());
      continue;
    }
    // A shared flag is one that some driver declares.
    auto shared = [&](const DriverFlags& d) { return has(d.shared, name); };
    if (name != "--snapshot-cache" && !shared(*decl)) {
      throw std::invalid_argument(std::ranges::any_of(table, shared)
                                      ? name + " is not supported"
                                      : "unknown option: " + std::string(arg));
    }
    auto on = [&] {  // a switch takes no value
      if (eq != std::string_view::npos) {
        throw std::invalid_argument(name + " takes no value");
      }
      return true;
    };
    if (name == "--csv") {
      opts.csv = on();
    } else if (name == "--cold-start") {
      opts.cold_start = on();
    } else if (name == "--from-snapshot") {
      opts.from_snapshot = on();
    } else if (name == "--json") {
      opts.json_path = value();
    } else if (name == "--trace") {
      opts.trace_path = value();
    } else if (name == "--record-ops") {
      opts.record_ops = value();
    } else if (name == "--replay-ops") {
      opts.replay_ops = value();
    } else if (name == "--seed") {
      opts.seed = parse_number<unsigned long long>("--seed", value());
    } else if (name == "--fault-seed") {
      opts.fault_seed =
          parse_number<unsigned long long>("--fault-seed", value());
    } else if (name == "--fault-jitter") {
      opts.fault_jitter =
          parse_number<unsigned long long>("--fault-jitter", value());
    } else if (name == "--jobs") {
      opts.jobs = parse_count("--jobs", value(), 1);
    } else if (name == "--ops") {
      // 0 would read as "the driver's default", so it cannot be given.
      opts.ops = parse_count<unsigned long long>("--ops", value(), 1);
    } else if (name == "--repeats") {
      opts.repeats = parse_count("--repeats", value(), 1);
    } else if (name == "--sockets") {
      opts.sockets = parse_count("--sockets", value(), 0);
    } else if (name == "--threads") {
      // An empty entry ("2,,4", a trailing comma) is an error, not a
      // 0-thread row.
      for (const int n : parse_number_list<int>("--threads", value())) {
        if (n < 1) throw std::invalid_argument("--threads needs counts >= 1");
        opts.threads.push_back(n);
      }
    } else if (name == "--fault-rate") {
      opts.fault_rate = parse_number<double>("--fault-rate", value());
      if (!(opts.fault_rate >= 0.0 && opts.fault_rate <= 1.0)) {
        throw std::invalid_argument(
            "--fault-rate needs a probability in [0,1]");
      }
    } else if (const std::string mode = value(); mode != "off") {  // cache
      throw std::invalid_argument(
          "--snapshot-cache=" + mode +
          ": the on-disk snapshot cache was removed; only off is accepted");
    }
  }
  return opts;
}

int BenchOptions::effective_jobs() const {
  return jobs > 0 ? jobs : default_sweep_jobs();
}

}  // namespace sbq
