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

BenchOptions BenchOptions::parse(int argc, char** argv, unsigned honoured) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(std::string(a) + " needs a value");
      return argv[++i];
    };
    // `flag`, of `family`, must be one the driver honours.
    auto require = [honoured](FlagFamily family, const char* flag) {
      if ((honoured & family) == 0) {
        throw std::invalid_argument(std::string(flag) + " is not supported");
      }
    };
    if (std::strcmp(a, "--csv") == 0) {
      opts.csv = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      opts.seed = parse_number<unsigned long long>(a, next_value());
    } else if (std::strcmp(a, "--ops") == 0) {
      // 0 means "unset" (the driver's default), so it cannot be given.
      opts.ops = parse_number<unsigned long long>(a, next_value());
      if (opts.ops == 0) throw std::invalid_argument("--ops needs a count >= 1");
    } else if (std::strcmp(a, "--repeats") == 0) {
      opts.repeats = parse_number<int>(a, next_value());
      if (opts.repeats < 1) {
        throw std::invalid_argument("--repeats needs a count >= 1");
      }
    } else if (std::strcmp(a, "--jobs") == 0) {
      opts.jobs = parse_number<int>(a, next_value());
      if (opts.jobs < 1) {
        throw std::invalid_argument("--jobs needs a positive thread count");
      }
    } else if (std::strcmp(a, "--cold-start") == 0) {
      opts.cold_start = true;
    } else if (std::strcmp(a, "--json") == 0) {
      opts.json_path = next_value();
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      opts.json_path = a + 7;
    } else if (std::strcmp(a, "--snapshot-cache") == 0 ||
               std::strncmp(a, "--snapshot-cache=", 17) == 0) {
      const char* mode = a[16] == '=' ? a + 17 : next_value();
      if (std::strcmp(mode, "off") != 0) {
        throw std::invalid_argument(
            std::string("--snapshot-cache=") + mode +
            ": the on-disk snapshot cache was removed; only off is accepted");
      }
    } else if (std::strcmp(a, "--from-snapshot") == 0) {
      require(kFromSnapshotFlag, a);
      opts.from_snapshot = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      require(kEventTraceFlag, a);
      opts.trace_path = next_value();
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      require(kEventTraceFlag, "--trace");
      opts.trace_path = a + 8;
    } else if (std::strcmp(a, "--record-ops") == 0) {
      require(kOpTraceFlags, a);
      opts.record_ops = next_value();
    } else if (std::strncmp(a, "--record-ops=", 13) == 0) {
      require(kOpTraceFlags, "--record-ops");
      opts.record_ops = a + 13;
    } else if (std::strcmp(a, "--replay-ops") == 0) {
      require(kOpTraceFlags, a);
      opts.replay_ops = next_value();
    } else if (std::strncmp(a, "--replay-ops=", 13) == 0) {
      require(kOpTraceFlags, "--replay-ops");
      opts.replay_ops = a + 13;
    } else if (std::strcmp(a, "--fault-rate") == 0) {
      require(kFaultFlags, a);
      opts.fault_rate = parse_number<double>(a, next_value());
      if (!(opts.fault_rate >= 0.0 && opts.fault_rate <= 1.0)) {
        throw std::invalid_argument("--fault-rate needs a probability in [0,1]");
      }
    } else if (std::strcmp(a, "--fault-seed") == 0) {
      require(kFaultFlags, a);
      opts.fault_seed = parse_number<unsigned long long>(a, next_value());
    } else if (std::strcmp(a, "--fault-jitter") == 0) {
      require(kFaultFlags, a);
      opts.fault_jitter = parse_number<unsigned long long>(a, next_value());
    } else if (std::strcmp(a, "--sockets") == 0) {
      opts.sockets = parse_number<int>(a, next_value());
      if (opts.sockets < 0) {
        throw std::invalid_argument("--sockets needs a non-negative count");
      }
    } else if (std::strcmp(a, "--threads") == 0) {
      // Every comma-separated entry is a thread count >= 1; an empty
      // entry ("2,,4", a trailing comma) is an error, not a 0-thread row.
      for (const int n : parse_number_list<int>(a, next_value())) {
        if (n < 1) throw std::invalid_argument("--threads needs counts >= 1");
        opts.threads.push_back(n);
      }
    } else {
      throw std::invalid_argument(std::string("unknown option: ") + a);
    }
  }
  return opts;
}

int BenchOptions::effective_jobs() const {
  return jobs > 0 ? jobs : default_sweep_jobs();
}

}  // namespace sbq
