// Robustness ablation: abort-injection rate vs. throughput and fallback
// fraction (docs/robustness.md).
//
// The paper's TxCAS argument (§4 "Progress") relies on surviving aborts the
// protocol itself never produces — capacity overflows, timer interrupts,
// spurious events. This driver sweeps the injected non-conflict abort rate
// on a producer-only SBQ-HTM workload (with bounded message jitter on the
// interconnect) and reports, per thread count:
//   * throughput — how gracefully performance degrades as HTM misbehaves;
//   * fallback_cas fraction — how often a TxCAS call degraded to a plain
//     CAS after exhausting its non-conflict abort budget.
// At rate 0 the fault plan stays disabled and the schedule is the default
// byte-identical one; with a fixed --fault-seed any two runs are
// byte-identical to each other (ctest fault_sweep_determinism).
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "sim_queue_bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace sbq;
  using namespace sbq::bench;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "ablation_fault_sweep");
  const std::vector<int> threads = opts.threads_or({4, 16, 32, 44});
  const simq::Value ops = opts.ops_or(200);
  // Top rate 0.8 models "HTM effectively broken": with the default
  // non-conflict abort budget of 8, a call falls back with probability
  // ~0.8^8 per attempt chain, so even tiny smoke sweeps exercise the
  // degraded plain-CAS path (the fault_sweep_determinism ctest asserts a
  // nonzero fallback_cas fraction).
  const std::vector<double> rates{0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8};
  BenchReport report("ablation_fault_sweep");
  report.set_sweep_config(opts, threads, ops, /*repeats=*/1);
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  {
    Json jr = Json::array();
    for (double r : rates) jr.push_back(Json(r));
    report.set_config("fault_rates", std::move(jr));
    report.set_config("fault_seed",
                      Json(static_cast<std::uint64_t>(opts.fault_seed)));
    report.set_config(
        "fault_jitter",
        Json(static_cast<std::uint64_t>(
            opts.fault_jitter == 0 ? 8 : opts.fault_jitter)));
  }

  std::cout << "# Robustness ablation: injected abort rate vs. SBQ-HTM "
            << "enqueue throughput (" << ops << " ops/thread, fault seed "
            << opts.fault_seed << ")\n"
            << "# rate splits 25/50/25 across capacity/interrupt/spurious; "
            << "bounded message jitter active at rate > 0\n";
  std::vector<std::string> columns{"fault_rate", "metric"};
  for (int t : threads) columns.push_back("T=" + std::to_string(t));
  Table table(std::move(columns));
  if (!opts.csv) table.stream_to(std::cout);

  // The swept rate replaces --fault-rate; rate 0 runs without injection.
  const std::uint64_t jitter = opts.fault_jitter == 0 ? 8 : opts.fault_jitter;
  auto make = [&](int t, double rate) {
    sim::MachineConfig mcfg = sim_machine_config(opts, t);
    mcfg.fault_plan = rate > 0 ? fault_plan(rate, opts.fault_seed, jitter)
                               : sim::FaultPlan{};
    WorkloadSpec spec;
    spec.kind = Workload::kProducerOnly;
    spec.producers = t;
    spec.ops_per_thread = ops;
    spec.seed = opts.seed;
    return std::pair(mcfg, spec);
  };

  run_grid(
      rates.size(), threads.size(), /*repeats=*/1, opts.effective_jobs(),
      [&](std::size_t row, std::size_t ti, std::size_t) {
        const auto [mcfg, spec] = make(threads[ti], rates[row]);
        return run_queue_workload(QueueKind::kSbqHtm, mcfg, spec);
      },
      [&](std::size_t row, const SweepGrid<SimRunResult>& results) {
        const double rate = rates[row];
        char rate_buf[32];
        std::snprintf(rate_buf, sizeof rate_buf, "%.2f", rate);
        if (!opts.json_path.empty()) {
          for (std::size_t ti = 0; ti < threads.size(); ++ti) {
            const SimRunResult& r = results.at(row, ti, 0);
            Json cj = Json::object();
            cj.set("fault_rate", Json(rate));
            cj.set("threads", Json(threads[ti]));
            cj.set("throughput_mops", Json(r.throughput_mops(ns_per_cycle())));
            cj.set("enq_latency_ns", Json(r.enq_latency_ns(ns_per_cycle())));
            const double calls = static_cast<double>(r.metrics.htm.calls);
            cj.set("fallback_cas_fraction",
                   Json(calls > 0
                            ? static_cast<double>(r.metrics.htm.fallback_cas) /
                                  calls
                            : 0.0));
            cj.set("counters", metrics_to_json(r.metrics));
            report.add_cell(std::move(cj));
          }
        }
        std::vector<std::string> thr_row{rate_buf, "throughput_mops"};
        std::vector<std::string> fb_row{rate_buf, "fallback_cas_frac"};
        for (std::size_t ti = 0; ti < threads.size(); ++ti) {
          const SimRunResult& r = results.at(row, ti, 0);
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.2f",
                        r.throughput_mops(ns_per_cycle()));
          thr_row.push_back(buf);
          const double calls = static_cast<double>(r.metrics.htm.calls);
          std::snprintf(
              buf, sizeof buf, "%.3f",
              calls > 0
                  ? static_cast<double>(r.metrics.htm.fallback_cas) / calls
                  : 0.0);
          fb_row.push_back(buf);
        }
        table.add_row(thr_row);
        table.add_row(fb_row);
      });
  table.print(std::cout, opts.csv);
  if (!opts.json_path.empty()) {
    report.add_table("fault_sweep", table);
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced/recorded cell: a mid-sweep rate at the first thread count, so a
  // recorded fault-injected schedule can be replayed and bisected
  // (docs/replay.md).
  const auto [mcfg, spec] = make(threads.front(), 0.1);
  return write_cell_artifacts(opts, QueueKind::kSbqHtm, mcfg, spec) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "ablation_fault_sweep: " << e.what() << "\n";
  return 1;
}
