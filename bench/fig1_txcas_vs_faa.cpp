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
#include <cstdio>
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

// Integer cycle counts: the totals stay far below 2^53 and every per-op
// delta is an exact double, so converting the final sums reproduces the old
// sequential double accumulation bit-for-bit — the goldens are unchanged.
struct LoopStats {
  std::uint64_t latency_cycles = 0;
  std::uint64_t ops = 0;
  std::uint64_t success = 0;
};

Task<void> faa_loop(Machine& m, int core, Addr x, Value ops,
                    std::uint64_t seed, std::shared_ptr<LoopStats> st) {
  Xoshiro256 rng(seed);
  auto& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (Value i = 0; i < ops; ++i) {
    const Time start = c.now();
    co_await c.faa(x, 1);
    st->latency_cycles += c.now() - start;
    ++st->ops;
    ++st->success;
    co_await c.think(1 + rng.next_below(8));
  }
}

Task<void> txcas_loop(Machine& m, int core, Addr x, Value ops,
                      std::uint64_t seed, std::shared_ptr<LoopStats> st) {
  Xoshiro256 rng(seed);
  auto& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  const sim::TxCasConfig cfg;  // paper defaults: ~270 ns delay
  for (Value i = 0; i < ops; ++i) {
    const Value v = co_await c.load(x);
    const Time start = c.now();
    const bool ok = co_await c.txcas(x, v, v + 1, cfg);
    st->latency_cycles += c.now() - start;
    ++st->ops;
    if (ok) ++st->success;
    co_await c.think(1 + rng.next_below(8));
  }
}

double run_mode(const BenchOptions& opts, bool txcas, int threads, Value ops,
                std::uint64_t seed, double* success_rate,
                sim::MetricsSnapshot* metrics = nullptr,
                const std::string& trace_path = {}) {
  sim::MachineConfig mcfg = bench::sim_machine_config(opts, threads);
  mcfg.record_trace = !trace_path.empty();
  Machine m(mcfg);
  const Addr x = m.alloc();
  auto st = std::make_shared<LoopStats>();
  for (int t = 0; t < threads; ++t) {
    if (txcas) {
      m.spawn(
          txcas_loop(m, t, x, ops, seed + static_cast<std::uint64_t>(t), st));
    } else {
      m.spawn(faa_loop(m, t, x, ops, seed + static_cast<std::uint64_t>(t), st));
    }
  }
  m.run();
  if (metrics != nullptr) *metrics = m.metrics();
  if (!trace_path.empty()) bench::write_trace_file(m, trace_path);
  const std::uint64_t nops = st->ops;
  if (success_rate != nullptr) {
    *success_rate =
        nops ? static_cast<double>(st->success) /
                   static_cast<double>(nops)
             : 0.0;
  }
  return static_cast<double>(st->latency_cycles) /
         static_cast<double>(nops) * ns_per_cycle();
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

  // One sweep cell per (thread count, repeat, mode); each runs its own
  // deterministic machine, so cells execute in parallel on the --jobs pool.
  struct Cell {
    double ns = 0;
    double success_rate = 0;
    sim::MetricsSnapshot metrics;
  };
  const std::size_t cells_per_row = static_cast<std::size_t>(repeats) * 2;
  std::vector<Cell> cells(threads.size() * cells_per_row);
  run_sweep_cells(
      threads.size(), cells_per_row, opts.effective_jobs(),
      [&](std::size_t i) {
        const int t = threads[i / cells_per_row];
        const int r = static_cast<int>((i % cells_per_row) / 2);
        const bool txcas = (i % 2) != 0;
        const std::uint64_t seed =
            opts.seed + static_cast<std::uint64_t>(r) * 977;
        Cell& c = cells[i];
        c.ns = run_mode(opts, txcas, t, ops, seed,
                        txcas ? &c.success_rate : nullptr, &c.metrics);
      },
      [&](std::size_t row) {
        if (!opts.json_path.empty()) {
          for (std::size_t i = row * cells_per_row;
               i < (row + 1) * cells_per_row; ++i) {
            const bool txcas = (i % 2) != 0;
            Json cj = Json::object();
            cj.set("threads", Json(threads[row]));
            cj.set("mode", Json(txcas ? "txcas" : "faa"));
            cj.set("repeat", Json(static_cast<int>((i % cells_per_row) / 2)));
            cj.set("latency_ns", Json(cells[i].ns));
            cj.set("success_rate", Json(cells[i].success_rate));
            cj.set("counters", metrics_to_json(cells[i].metrics));
            report.add_cell(std::move(cj));
          }
        }
        Summary faa, txc, rate;
        for (int r = 0; r < repeats; ++r) {
          const std::size_t base =
              row * cells_per_row + static_cast<std::size_t>(r) * 2;
          faa.add(cells[base].ns);
          txc.add(cells[base + 1].ns);
          rate.add(cells[base + 1].success_rate);
        }
        table.add_row({static_cast<double>(threads[row]), faa.mean(),
                       txc.mean(), rate.mean()});
      });
  table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("latency", table);
    if (!report.write(opts.json_path)) return 1;
  }
  if (!opts.trace_path.empty()) {
    // Traced cell: the TxCAS mode at the first thread count, repeat 0.
    run_mode(opts, /*txcas=*/true, threads.front(), ops, opts.seed, nullptr,
             nullptr, opts.trace_path);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "fig1_txcas_vs_faa: " << e.what() << "\n";
  return 1;
}
