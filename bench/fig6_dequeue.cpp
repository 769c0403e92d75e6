// Figure 6: consumer-only workload — dequeue latency for the five evaluated
// queues, draining a pre-filled queue (§6.2 "Consumer-only workload").
//
// Expected shape: no queue scales here (every dequeue pays a contended FAA
// or equivalent). SBQ-HTM tracks the FAA queue within a small constant
// factor (the paper measures ~1.4x at high thread counts, caused by SBQ
// dequeues occasionally performing multiple FAAs on drained baskets);
// CC-Queue and BQ-Original are worse.
#include <exception>
#include <iostream>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "sim_queue_bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace sbq;
  using namespace sbq::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv, "fig6_dequeue");
  const std::vector<int> threads = opts.threads_or(default_single_socket_sweep());
  const simq::Value ops = opts.ops_or(200);
  const int repeats = opts.repeats_or(2);
  const std::vector<QueueKind>& queues = evaluated_queue_kinds();
  BenchReport report("fig6_dequeue");
  report.set_sweep_config(opts, threads, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));

  std::cout << "# Figure 6: dequeue-only latency (single socket, pre-filled "
            << "queue, " << ops << " ops/thread, " << repeats << " repeats)\n";
  Table table({"threads", "SBQ-HTM", "SBQ-CAS", "WF-Queue", "BQ-Original",
               "CC-Queue", "MS-Queue"});
  if (!opts.csv) {
    std::cout << "\n## Dequeue latency [ns/op] (lower is better)\n";
    table.stream_to(std::cout);
  }
  auto make = [&](int t, int repeat) {
    const sim::MachineConfig mcfg = sim_machine_config(opts, t);
    WorkloadSpec spec;
    spec.kind = Workload::kConsumerOnly;
    // The queue is pre-filled by `producers` concurrent enqueuers (the
    // same thread count, matching the paper's setup) before measuring.
    spec.producers = t;
    spec.consumers = t;
    spec.ops_per_thread = ops;
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
        std::vector<double> out{static_cast<double>(threads[row])};
        for (std::size_t q = 0; q < queues.size(); ++q) {
          Summary lat;
          for (std::size_t r = 0; r < res.repeats; ++r) {
            lat.add(res.at(row, q, r).deq_latency_ns(ns_per_cycle()));
          }
          out.push_back(lat.mean());
        }
        table.add_row(out);
      },
      opts.cold_start);
  if (opts.csv) {
    std::cout << "\n## Dequeue latency [ns/op] (lower is better)\n";
    table.print(std::cout, opts.csv);
  }
  if (!opts.json_path.empty()) {
    report.add_table("deq_latency_ns", table);
    if (!report.write(opts.json_path)) return 1;
  }
  const auto [mcfg, spec] = make(threads.front(), 0);
  return write_cell_artifacts(opts, queues.front(), mcfg, spec) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fig6_dequeue: " << e.what() << "\n";
  return 1;
}
