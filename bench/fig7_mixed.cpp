// Figure 7: mixed producer/consumer workload across two sockets —
// normalized total duration (ns per operation) for the five evaluated
// queues (§6.2 "Mixed workload").
//
// Setup mirrors the paper: producers pinned to socket 0, consumers to
// socket 1 (TxCASs of the tail all execute on socket 0, §4.3), the queue
// pre-filled so consumers rarely find it empty. Expected shape: the SBQ
// variants and WF-Queue lead; SBQ-HTM overtakes WF-Queue at high total
// thread counts by a modest factor (the paper reports 1.16x at 88).
#include <exception>
#include <iostream>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "sim_queue_bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace sbq;
  using namespace sbq::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv, "fig7_mixed");
  const std::vector<int> threads =
      mixed_totals(opts.threads_or(default_dual_socket_sweep()));
  const simq::Value ops = opts.ops_or(200);
  const int repeats = opts.repeats_or(2);
  const std::vector<QueueKind>& queues = evaluated_queue_kinds();
  BenchReport report("fig7_mixed");
  report.set_sweep_config(opts, threads, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));

  std::cout << "# Figure 7: mixed workload normalized duration (producers on "
            << "socket 0, consumers on socket 1, " << ops
            << " ops/thread, " << repeats << " repeats)\n";
  Table table({"threads", "SBQ-HTM", "SBQ-CAS", "WF-Queue", "BQ-Original",
               "CC-Queue", "MS-Queue"});
  if (!opts.csv) {
    std::cout << "\n## Normalized duration [ns/op] (lower is better)\n";
    table.stream_to(std::cout);
  }
  auto make = [&](int total, int repeat) {
    const int half = total / 2;
    const sim::MachineConfig mcfg = sim_machine_config(opts, total, 2);
    WorkloadSpec spec;
    spec.kind = Workload::kMixed;
    spec.producers = half;
    spec.consumers = half;
    spec.ops_per_thread = ops;
    spec.prefill = static_cast<simq::Value>(half) * ops / 2;
    spec.seed = opts.seed + static_cast<std::uint64_t>(repeat) * 7919;
    // Repeat-independent, so repeats of one (row, queue) group share one
    // warmed snapshot and forking stays byte-identical to --cold-start.
    spec.prefill_seed = opts.seed;
    return std::pair(mcfg, spec);
  };
  run_queue_sweep(
      threads, queues, repeats, opts.effective_jobs(), make,
      [&](std::size_t row, const SweepGrid<SimRunResult>& res) {
        if (!opts.json_path.empty()) {
          add_row_cells(report, row, threads[row], queues, res, ns_per_cycle());
        }
        const int total = threads[row];
        std::vector<double> out{static_cast<double>(total)};
        for (std::size_t q = 0; q < queues.size(); ++q) {
          Summary dur;
          for (std::size_t r = 0; r < res.repeats; ++r) {
            const SimRunResult& cell = res.at(row, q, r);
            const double total_ops =
                static_cast<double>(cell.enq_ops + cell.deq_ops);
            dur.add(cell.duration_cycles * ns_per_cycle() / total_ops *
                    static_cast<double>(total));
          }
          out.push_back(dur.mean());
        }
        table.add_row(out);
      },
      opts.cold_start);
  if (opts.csv) {
    std::cout << "\n## Normalized duration [ns/op] (lower is better)\n";
    table.print(std::cout, opts.csv);
  }
  if (!opts.json_path.empty()) {
    report.add_table("normalized_duration_ns", table);
    if (!report.write(opts.json_path)) return 1;
  }
  const auto [mcfg, spec] = make(threads.front(), 0);
  return write_cell_artifacts(opts, queues.front(), mcfg, spec) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fig7_mixed: " << e.what() << "\n";
  return 1;
}
