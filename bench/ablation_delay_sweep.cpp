// §4.1 ablation: the intra-transaction delay trade-off.
//
// TxCAS delays between its transactional read and write. The paper found
// ~270 ns empirically optimal on its platform: shorter delays serialize
// successful TxCASs like plain CAS (bad at high concurrency), longer delays
// just add latency. We sweep the delay at several thread counts and report
// mean TxCAS latency plus the pre-write-abort fraction (aborts that
// happened before the write issued, which is what the delay buys).
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "sim/machine.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq {
namespace {

using sim::Addr;
using sim::Machine;
using sim::Time;
using sim::Value;

struct Result {
  double mean_latency_ns = 0;
  double pre_write_abort_fraction = 0;  // nested / all transactional aborts
  sim::MetricsSnapshot metrics;
};

// One cell: `threads` cores of `m` TxCAS one word with a `delay`-cycle
// intra-transaction delay.
Result run(Machine& m, int threads, Time delay, Value ops,
           std::uint64_t seed) {
  const Addr x = m.alloc();
  auto st = std::make_shared<bench::LoopStats>();
  sim::TxCasConfig tx;
  tx.intra_txn_delay = delay;
  for (int c = 0; c < threads; ++c) {
    m.spawn(bench::txcas_loop(m, c, x, ops,
                              seed + static_cast<std::uint64_t>(c), tx, st));
  }
  m.run();
  const sim::HtmCounters htm = m.stats().htm();
  const std::uint64_t nested = htm.read_conflicts;
  // Attempts minus (successes + self-aborts + nested) are write-phase
  // conflict retries; we approximate write conflicts with attempts.
  const std::uint64_t write_conflicts = htm.attempts - htm.calls;
  Result r;
  r.mean_latency_ns = static_cast<double>(st->latency_cycles) /
                      static_cast<double>(st->ops) * ns_per_cycle();
  const double aborts =
      static_cast<double>(nested) + static_cast<double>(write_conflicts);
  r.pre_write_abort_fraction =
      aborts > 0 ? static_cast<double>(nested) / aborts : 1.0;
  r.metrics = m.metrics();
  return r;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "ablation_delay_sweep");
  const sim::Value ops = opts.ops_or(250);
  const std::vector<int> threads = opts.threads_or({4, 16, 32, 44});

  std::cout << "# 4.1 ablation: TxCAS intra-transaction delay sweep ("
            << ops << " ops/thread)\n"
            << "# paper: ~270 ns (675 cycles) was optimal on Broadwell\n";
  // Column headers follow the actual --threads sweep (the old fixed
  // "T=4..T=44" header broke on custom thread lists).
  std::vector<std::string> columns{"delay_cycles", "delay_ns", "metric"};
  for (int t : threads) columns.push_back("T=" + std::to_string(t));
  Table table(std::move(columns));
  if (!opts.csv) table.stream_to(std::cout);
  const std::vector<sim::Time> delays{0, 80, 200, 400, 675, 1000, 1600, 2600};
  BenchReport report("ablation_delay_sweep");
  report.set_sweep_config(opts, threads, ops, /*repeats=*/1);
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  {
    Json jd = Json::array();
    for (sim::Time d : delays) jd.push_back(Json(static_cast<std::uint64_t>(d)));
    report.set_config("delays_cycles", std::move(jd));
  }
  run_grid(
      delays.size(), threads.size(), /*repeats=*/1, opts.effective_jobs(),
      [&](std::size_t row, std::size_t ti, std::size_t) {
        Machine m(bench::sim_machine_config(opts, threads[ti]));
        return run(m, threads[ti], delays[row], ops, opts.seed);
      },
      [&](std::size_t row, const SweepGrid<Result>& results) {
        const sim::Time delay = delays[row];
        if (!opts.json_path.empty()) {
          for (std::size_t ti = 0; ti < threads.size(); ++ti) {
            const Result& r = results.at(row, ti, 0);
            Json cj = Json::object();
            cj.set("delay_cycles", Json(static_cast<std::uint64_t>(delay)));
            cj.set("threads", Json(threads[ti]));
            cj.set("latency_ns", Json(r.mean_latency_ns));
            cj.set("pre_write_abort_fraction",
                   Json(r.pre_write_abort_fraction));
            cj.set("counters", metrics_to_json(r.metrics));
            report.add_cell(std::move(cj));
          }
        }
        const std::string delay_ns = std::to_string(
            static_cast<int>(static_cast<double>(delay) * ns_per_cycle()));
        std::vector<std::string> lat_row{std::to_string(delay), delay_ns,
                                         "latency_ns"};
        std::vector<std::string> frac_row{std::to_string(delay), delay_ns,
                                          "pre_write_abort_frac"};
        for (std::size_t ti = 0; ti < threads.size(); ++ti) {
          const Result& r = results.at(row, ti, 0);
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.1f", r.mean_latency_ns);
          lat_row.push_back(buf);
          std::snprintf(buf, sizeof buf, "%.2f", r.pre_write_abort_fraction);
          frac_row.push_back(buf);
        }
        table.add_row(lat_row);
        table.add_row(frac_row);
      });
  table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("delay_sweep", table);
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced cell: the paper-optimal delay at the first thread count.
  const bool traced = bench::trace_cell(
      opts.trace_path, bench::sim_machine_config(opts, threads.front()),
      [&](Machine& m) {
        run(m, threads.front(), /*delay=*/675, ops, opts.seed);
      });
  return traced ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "ablation_delay_sweep: " << e.what() << "\n";
  return 1;
}
