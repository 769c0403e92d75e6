// §8 future-work extension: the striped scalable-dequeue basket.
//
// The paper's conclusion names "designing a basket with scalable dequeue
// operations" as future work. This bench measures our striped-counter
// basket against the paper's single-counter basket on the consumer-only
// workload (Figure 6's regime, where the single FAA is the bottleneck),
// sweeping the stripe count.
#include <fstream>
#include <iostream>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sim_workload.hpp"
#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/stats.hpp"
#include "sim_queue_bench_util.hpp"
#include "simqueue/sim_sbq.hpp"

int main(int argc, char** argv) {
  using namespace sbq;
  using namespace sbq::simq;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const Value ops = opts.ops_or(200);
  const int repeats = opts.repeats_or(2);
  const std::vector<int> threads = opts.threads_or({4, 8, 16, 24, 32, 44});

  std::cout << "# 8 (future work): striped scalable-dequeue basket — "
               "consumer-only dequeue latency [ns/op]\n"
            << "# S=1 is the paper's basket; larger S shards the extraction "
               "FAA (" << ops << " ops/thread)\n";
  Table table({"threads", "S=1 (paper)", "S=2", "S=4", "S=8"});
  if (!opts.csv) table.stream_to(std::cout);
  const std::vector<int> stripe_counts{1, 2, 4, 8};
  BenchReport report("ablation_striped_basket");
  report.set_sweep_config(opts, threads, ops, repeats);
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  {
    Json js = Json::array();
    for (int s : stripe_counts) js.push_back(Json(s));
    report.set_config("stripe_counts", std::move(js));
  }
  const std::size_t nrep = static_cast<std::size_t>(repeats);
  const std::size_t cells_per_row = stripe_counts.size() * nrep;
  auto run_cell = [&](int t, int stripes, std::uint64_t r,
                      const std::string& trace_path = {}) {
    sim::MachineConfig mcfg = bench::sim_machine_config(opts, t);
    mcfg.record_trace = !trace_path.empty();
    sim::Machine m(mcfg);
    SimSbq::Config qc;
    qc.enqueuers = t;
    qc.dequeuers = t;
    qc.basket_capacity = std::max(44, t);
    qc.extraction_stripes = stripes;
    SimSbq q(m, qc);
    WorkloadSpec spec;
    spec.kind = Workload::kConsumerOnly;
    spec.producers = t;  // the prefill threads
    spec.consumers = t;
    spec.ops_per_thread = ops;
    spec.seed = opts.seed + r * 7919;
    SimRunResult res = run_spec(m, q, spec, 0);
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (out) {
        m.trace().write_jsonl(out);
      } else {
        std::cerr << "--trace: cannot open " << trace_path
                  << " for writing\n";
      }
    }
    return res;
  };
  std::vector<SimRunResult> results(threads.size() * cells_per_row);
  run_sweep_cells(
      threads.size(), cells_per_row, opts.effective_jobs(),
      [&](std::size_t i) {
        const int t = threads[i / cells_per_row];
        const int stripes = stripe_counts[(i % cells_per_row) / nrep];
        const std::uint64_t r = i % nrep;
        results[i] = run_cell(t, stripes, r);
      },
      [&](std::size_t row) {
        if (!opts.json_path.empty()) {
          for (std::size_t si = 0; si < stripe_counts.size(); ++si) {
            for (std::size_t r = 0; r < nrep; ++r) {
              const SimRunResult& res =
                  results[row * cells_per_row + si * nrep + r];
              Json cj = Json::object();
              cj.set("threads", Json(threads[row]));
              cj.set("stripes", Json(stripe_counts[si]));
              cj.set("repeat", Json(static_cast<int>(r)));
              cj.set("deq_ops", Json(res.deq_ops));
              cj.set("deq_latency_ns",
                     Json(res.deq_latency_ns(ns_per_cycle())));
              cj.set("duration_cycles",
                     Json(static_cast<std::uint64_t>(res.duration_cycles)));
              cj.set("counters", metrics_to_json(res.metrics));
              report.add_cell(std::move(cj));
            }
          }
        }
        std::vector<double> out{static_cast<double>(threads[row])};
        for (std::size_t si = 0; si < stripe_counts.size(); ++si) {
          Summary lat;
          for (std::size_t r = 0; r < nrep; ++r) {
            lat.add(results[row * cells_per_row + si * nrep + r]
                        .deq_latency_ns(ns_per_cycle()));
          }
          out.push_back(lat.mean());
        }
        table.add_row(out);
      });
  table.print(std::cout, opts.csv);
  std::cout << "\n(Striping shards the per-basket FAA chain across S "
               "counters; dequeue latency\n drops accordingly until stripe "
               "fall-over and the remaining shared lines\n dominate.)\n";
  if (!opts.json_path.empty()) {
    report.add_table("deq_latency_ns", table);
    if (!report.write(opts.json_path)) return 1;
  }
  if (!opts.trace_path.empty()) {
    // Traced cell: the paper's single-counter basket, smallest thread count.
    run_cell(threads.front(), /*stripes=*/1, 0, opts.trace_path);
  }
  return 0;
}
