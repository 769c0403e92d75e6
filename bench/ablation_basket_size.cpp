// §5.3.4 ablation: SBQ enqueue latency vs basket size B and enqueuer count T.
//
// The paper's analysis: enqueue latency is dominated by amortized basket
// initialization O(B/T) — for fixed B it decreases monotonically with T;
// sizing B = T gives O(1). We sweep B for several T (B >= T) and also show
// the B = T diagonal.
#include <exception>
#include <iostream>

#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "sim_queue_bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace sbq;
  using namespace sbq::bench;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "ablation_basket_size");
  const simq::Value ops = opts.ops_or(200);
  const int repeats = opts.repeats_or(3);

  std::cout << "# 5.3.4 ablation: SBQ-HTM enqueue latency vs basket size B "
               "and enqueuers T (" << ops << " ops/thread)\n";
  const std::vector<int> thread_counts = opts.threads_or({2, 8, 22, 44});
  std::vector<std::string> columns{"B"};
  for (int t : thread_counts) columns.push_back("T=" + std::to_string(t));
  Table table(std::move(columns));
  if (!opts.csv) table.stream_to(std::cout);
  const std::vector<int> basket_sizes{2, 8, 22, 44, 88};
  BenchReport report("ablation_basket_size");
  report.set_sweep_config(opts, thread_counts, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  {
    Json jb = Json::array();
    for (int b : basket_sizes) jb.push_back(Json(b));
    report.set_config("basket_sizes", std::move(jb));
  }
  const std::size_t nrep = static_cast<std::size_t>(repeats);
  auto make = [&](int t, int b, int r) {
    const sim::MachineConfig mcfg = sim_machine_config(opts, t);
    WorkloadSpec spec;
    spec.kind = Workload::kProducerOnly;
    spec.producers = t;
    spec.ops_per_thread = ops;
    spec.basket_capacity = b;
    spec.seed = opts.seed + static_cast<std::uint64_t>(r) * 7919;
    return std::pair(mcfg, spec);
  };
  run_grid(
      basket_sizes.size(), thread_counts.size(), nrep, opts.effective_jobs(),
      [&](std::size_t row, std::size_t ti, std::size_t r) {
        const int b = basket_sizes[row];
        const int t = thread_counts[ti];
        // Infeasible cell: B must cover the enqueuers.
        if (b < t) return SimRunResult{};
        const auto [mcfg, spec] = make(t, b, static_cast<int>(r));
        return run_queue_workload(QueueKind::kSbqHtm, mcfg, spec);
      },
      [&](std::size_t row, const SweepGrid<SimRunResult>& results) {
        const int b = basket_sizes[row];
        if (!opts.json_path.empty()) {
          for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
            if (b < thread_counts[ti]) continue;
            for (std::size_t r = 0; r < nrep; ++r) {
              const SimRunResult& res = results.at(row, ti, r);
              Json cj = Json::object();
              cj.set("basket_capacity", Json(b));
              cj.set("threads", Json(thread_counts[ti]));
              cj.set("repeat", Json(static_cast<int>(r)));
              cj.set("enq_ops", Json(res.enq_ops));
              cj.set("enq_latency_ns", Json(res.enq_latency_ns(ns_per_cycle())));
              cj.set("duration_cycles",
                     Json(static_cast<std::uint64_t>(res.duration_cycles)));
              cj.set("counters", metrics_to_json(res.metrics));
              report.add_cell(std::move(cj));
            }
          }
        }
        std::vector<std::string> out{std::to_string(b)};
        for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
          if (b < thread_counts[ti]) {
            out.push_back("-");
            continue;
          }
          Summary lat;
          for (std::size_t r = 0; r < nrep; ++r) {
            lat.add(results.at(row, ti, r).enq_latency_ns(ns_per_cycle()));
          }
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.1f", lat.mean());
          out.push_back(buf);
        }
        table.add_row(out);
      });
  table.print(std::cout, opts.csv);
  std::cout << "\n(For fixed B, latency improves as T grows — O(B/T) "
               "amortized init; the B=T\n diagonal stays flat.)\n";
  if (!opts.json_path.empty()) {
    report.add_table("enq_latency_ns", table);
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced/recorded cell: the smallest basket at the first thread count (the
  // B = T diagonal by default; with_queue widens B to cover T).
  const auto [mcfg, spec] =
      make(thread_counts.front(), basket_sizes.front(), 0);
  return write_cell_artifacts(opts, QueueKind::kSbqHtm, mcfg, spec) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "ablation_basket_size: " << e.what() << "\n";
  return 1;
}
