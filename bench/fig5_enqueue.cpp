// Figure 5: producer-only workload — enqueue latency and total throughput
// for the five evaluated queues, filling an initially empty queue
// (§6.2 "Producer-only workload").
//
// Expected shape (per the paper): SBQ-HTM's latency flattens beyond ~10
// threads; SBQ-CAS tracks it at low concurrency and stops scaling around 20
// threads; WF-Queue (FAA), BQ-Original and CC-Queue grow linearly, so at 44
// producers SBQ-HTM reaches ~1.6x the throughput of the FAA queue.
#include <exception>
#include <iostream>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "sim_queue_bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace sbq;
  using namespace sbq::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv, "fig5_enqueue");
  const std::vector<int> threads = opts.threads_or(default_single_socket_sweep());
  const simq::Value ops = opts.ops_or(200);
  const int repeats = opts.repeats_or(2);
  const std::vector<QueueKind>& queues = evaluated_queue_kinds();
  BenchReport report("fig5_enqueue");
  report.set_sweep_config(opts, threads, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));

  std::cout << "# Figure 5: enqueue-only latency & throughput "
            << "(single socket, empty queue, " << ops << " ops/thread, "
            << repeats << " repeats)\n";
  Table lat_table({"threads", "SBQ-HTM", "SBQ-CAS", "WF-Queue", "BQ-Original",
                   "CC-Queue", "MS-Queue"});
  Table thr_table({"threads", "SBQ-HTM", "SBQ-CAS", "WF-Queue", "BQ-Original",
                   "CC-Queue", "MS-Queue"});
  if (!opts.csv) {
    // Stream latency rows as their sweep cells complete; the throughput
    // table (same cells) prints after the sweep.
    std::cout << "\n## Enqueue latency [ns/op] (lower is better)\n";
    lat_table.stream_to(std::cout);
  }
  auto make = [&](int t, int repeat) {
    const sim::MachineConfig mcfg = sim_machine_config(opts, t);
    WorkloadSpec spec;
    spec.kind = Workload::kProducerOnly;
    spec.producers = t;
    spec.ops_per_thread = ops;
    spec.seed = opts.seed + static_cast<std::uint64_t>(repeat) * 7919;
    return std::pair(mcfg, spec);
  };
  run_queue_sweep(
      threads, queues, repeats, opts.effective_jobs(), make,
      [&](std::size_t row, const SweepGrid<SimRunResult>& res) {
        if (!opts.json_path.empty()) {
          add_row_cells(report, row, threads[row], queues, res, ns_per_cycle());
        }
        std::vector<double> lat_row{static_cast<double>(threads[row])};
        std::vector<double> thr_row{static_cast<double>(threads[row])};
        for (std::size_t q = 0; q < queues.size(); ++q) {
          Summary lat, thr;
          for (std::size_t r = 0; r < res.repeats; ++r) {
            const SimRunResult& cell = res.at(row, q, r);
            lat.add(cell.enq_latency_ns(ns_per_cycle()));
            thr.add(cell.throughput_mops(ns_per_cycle()));
          }
          lat_row.push_back(lat.mean());
          thr_row.push_back(thr.mean());
        }
        lat_table.add_row(lat_row);
        thr_table.add_row(thr_row);
      },
      opts.cold_start);
  if (opts.csv) {
    std::cout << "\n## Enqueue latency [ns/op] (lower is better)\n";
    lat_table.print(std::cout, opts.csv);
  }
  std::cout << "\n## Total throughput [Mop/s] (higher is better)\n";
  thr_table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("enq_latency_ns", lat_table);
    report.add_table("throughput_mops", thr_table);
    if (!report.write(opts.json_path)) return 1;
  }
  const auto [mcfg, spec] = make(threads.front(), 0);
  return write_cell_artifacts(opts, queues.front(), mcfg, spec) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fig5_enqueue: " << e.what() << "\n";
  return 1;
}
