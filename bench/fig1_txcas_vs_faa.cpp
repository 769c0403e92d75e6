// Figure 1: TxCAS vs standard atomic operation latency.
//
// Reproduces the paper's headline microbenchmark: threads hammer a single
// shared word, once with FAA (the fastest standard RMW) and once with
// TxCAS. FAA latency grows linearly with the thread count because M-state
// ownership hand-offs are serialized (§3.2); TxCAS latency is dominated by
// the intra-transaction delay but stays roughly constant because failures
// abort concurrently (§3.3).
//
// Output columns: threads, FAA ns/op, TxCAS ns/op (and TxCAS success rate
// for context; the paper plots only the latencies).
#include <exception>
#include <iostream>
#include <memory>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/machine.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq {
namespace {

using sim::Addr;
using sim::Machine;
using sim::Task;
using sim::Time;
using sim::Value;

struct Cell {
  double ns = 0;
  double success_rate = 0;  // TxCAS cells only; the paper plots latencies
  sim::MetricsSnapshot metrics;
};

Task<void> faa_loop(Machine& m, int core, Addr x, Value ops,
                    std::uint64_t seed, std::shared_ptr<bench::LoopStats> st) {
  Xoshiro256 rng(seed);
  auto& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (Value i = 0; i < ops; ++i) {
    const Time start = c.now();
    co_await c.faa(x, 1);
    st->latency_cycles += c.now() - start;
    ++st->ops;
    co_await c.think(1 + rng.next_below(8));
  }
}

// One cell: `threads` cores of `m` hammer one word with FAA or TxCAS.
Cell run_mode(Machine& m, bool txcas, int threads, Value ops,
              std::uint64_t seed) {
  const Addr x = m.alloc();
  auto st = std::make_shared<bench::LoopStats>();
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t core_seed = seed + static_cast<std::uint64_t>(t);
    if (txcas) {
      // Paper defaults: ~270 ns intra-transaction delay.
      m.spawn(bench::txcas_loop(m, t, x, ops, core_seed, sim::TxCasConfig{},
                                st));
    } else {
      m.spawn(faa_loop(m, t, x, ops, core_seed, st));
    }
  }
  m.run();
  Cell cell;
  cell.metrics = m.metrics();
  const double nops = static_cast<double>(st->ops);
  if (st->ops != 0) cell.success_rate = static_cast<double>(st->success) / nops;
  cell.ns = static_cast<double>(st->latency_cycles) / nops * ns_per_cycle();
  return cell;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "fig1_txcas_vs_faa");
  const std::vector<int> threads = opts.threads_or(default_single_socket_sweep());
  const sim::Value ops = opts.ops_or(400);
  const int repeats = opts.repeats_or(3);
  BenchReport report("fig1_txcas_vs_faa");
  report.set_sweep_config(opts, threads, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));

  std::cout << "# Figure 1: TxCAS vs. standard atomic operation latency\n"
            << "# single socket, one contended word, " << ops
            << " ops/thread, " << repeats << " repeats\n";
  Table table({"threads", "faa_ns_op", "txcas_ns_op", "txcas_success_rate"});
  if (!opts.csv) table.stream_to(std::cout);

  // One sweep cell per (thread count, mode, repeat); each runs its own
  // deterministic machine, so cells execute in parallel on the --jobs pool.
  // Mode 0 is FAA, mode 1 TxCAS.
  run_grid(
      threads.size(), 2, static_cast<std::size_t>(repeats),
      opts.effective_jobs(),
      [&](std::size_t row, std::size_t mode, std::size_t rep) {
        Machine m(bench::sim_machine_config(opts, threads[row]));
        return run_mode(m, mode == 1, threads[row], ops,
                        opts.seed + static_cast<std::uint64_t>(rep) * 977);
      },
      [&](std::size_t row, const SweepGrid<Cell>& cells) {
        const std::size_t nrep = cells.repeats;
        if (!opts.json_path.empty()) {
          for (std::size_t r = 0; r < nrep; ++r) {
            for (std::size_t mode = 0; mode < 2; ++mode) {
              const Cell& c = cells.at(row, mode, r);
              Json cj = Json::object();
              cj.set("threads", Json(threads[row]));
              cj.set("mode", Json(mode == 1 ? "txcas" : "faa"));
              cj.set("repeat", Json(static_cast<int>(r)));
              cj.set("latency_ns", Json(c.ns));
              cj.set("success_rate", Json(c.success_rate));
              cj.set("counters", metrics_to_json(c.metrics));
              report.add_cell(std::move(cj));
            }
          }
        }
        Summary faa, txc, rate;
        for (std::size_t r = 0; r < nrep; ++r) {
          faa.add(cells.at(row, 0, r).ns);
          txc.add(cells.at(row, 1, r).ns);
          rate.add(cells.at(row, 1, r).success_rate);
        }
        table.add_row({static_cast<double>(threads[row]), faa.mean(),
                       txc.mean(), rate.mean()});
      });
  table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("latency", table);
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced cell: the TxCAS mode at the first thread count, repeat 0.
  const bool traced = bench::trace_cell(
      opts.trace_path, bench::sim_machine_config(opts, threads.front()),
      [&](Machine& m) {
        run_mode(m, /*txcas=*/true, threads.front(), ops, opts.seed);
      });
  return traced ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fig1_txcas_vs_faa: " << e.what() << "\n";
  return 1;
}
