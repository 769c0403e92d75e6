// §3.4.1 ablation: what the proposed microarchitectural fix buys at the
// queue level. SBQ-HTM on the mixed two-socket workload (where consumer
// reads of the tail cross sockets and can trip enqueuers' TxCAS commits),
// with the fix off and on.
#include <exception>
#include <iostream>
#include <vector>

#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "sim_queue_bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace sbq;
  using namespace sbq::bench;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "ablation_uarch_fix");
  const simq::Value ops = opts.ops_or(200);
  const int repeats = opts.repeats_or(2);
  const std::vector<int> totals =
      mixed_totals(opts.threads_or({8, 16, 32, 64, 88}));

  std::cout << "# 3.4.1 ablation: SBQ-HTM mixed workload, uarch fix off/on ("
            << ops << " ops/thread)\n";
  Table table({"threads", "enq_ns(nofix)", "enq_ns(fix)", "dur_ns(nofix)",
               "dur_ns(fix)"});
  if (!opts.csv) table.stream_to(std::cout);
  BenchReport report("ablation_uarch_fix");
  report.set_sweep_config(opts, totals, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  auto make = [&](int total, int repeat, bool fix) {
    const int half = total / 2;
    sim::MachineConfig mcfg = sim_machine_config(opts, total, 2);
    mcfg.uarch_fix = fix;
    WorkloadSpec spec;
    spec.kind = Workload::kMixed;
    spec.producers = half;
    spec.consumers = half;
    spec.ops_per_thread = ops;
    spec.prefill = static_cast<simq::Value>(half) * ops / 2;
    spec.seed = opts.seed + static_cast<std::uint64_t>(repeat) * 7919;
    return std::pair(mcfg, spec);
  };
  // Column 0 runs with the fix off, column 1 with it on.
  run_grid(
      totals.size(), 2, static_cast<std::size_t>(repeats),
      opts.effective_jobs(),
      [&](std::size_t row, std::size_t fix, std::size_t r) {
        const auto [mcfg, spec] =
            make(totals[row], static_cast<int>(r), /*fix=*/fix == 1);
        return run_queue_workload(QueueKind::kSbqHtm, mcfg, spec);
      },
      [&](std::size_t row, const SweepGrid<SimRunResult>& results) {
        const int total = totals[row];
        if (!opts.json_path.empty()) {
          for (std::size_t r = 0; r < results.repeats; ++r) {
            for (std::size_t fix = 0; fix < 2; ++fix) {
              const SimRunResult& res = results.at(row, fix, r);
              Json cj = Json::object();
              cj.set("threads", Json(total));
              cj.set("uarch_fix", Json(fix == 1));
              cj.set("repeat", Json(static_cast<int>(r)));
              cj.set("enq_ops", Json(res.enq_ops));
              cj.set("deq_ops", Json(res.deq_ops));
              cj.set("enq_latency_ns",
                     Json(res.enq_latency_ns(ns_per_cycle())));
              cj.set("duration_cycles",
                     Json(static_cast<std::uint64_t>(res.duration_cycles)));
              cj.set("counters", metrics_to_json(res.metrics));
              report.add_cell(std::move(cj));
            }
          }
        }
        Summary enq[2], dur[2];
        for (std::size_t r = 0; r < results.repeats; ++r) {
          for (std::size_t fix = 0; fix < 2; ++fix) {
            const SimRunResult& res = results.at(row, fix, r);
            const double total_ops =
                static_cast<double>(res.enq_ops + res.deq_ops);
            enq[fix].add(res.enq_latency_ns(ns_per_cycle()));
            dur[fix].add(res.duration_cycles * ns_per_cycle() / total_ops *
                         static_cast<double>(total));
          }
        }
        table.add_row({static_cast<double>(total), enq[0].mean(),
                       enq[1].mean(), dur[0].mean(), dur[1].mean()});
      });
  table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("uarch_fix_ablation", table);
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced/recorded cell: smallest mixed workload with the fix off.
  const auto [mcfg, spec] = make(totals.front(), 0, /*fix=*/false);
  return write_cell_artifacts(opts, QueueKind::kSbqHtm, mcfg, spec) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "ablation_uarch_fix: " << e.what() << "\n";
  return 1;
}
